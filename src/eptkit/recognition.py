"""The decision pipeline: Helly EPT membership and the minimum host
degree.

Membership is decided exactly by the oracle's bijection-tree search.
For a member, h rests on two things only: the search's certificate and
the clique-separator atoms (see cheapest_representation). is_interval,
is_chordal and has_asteroidal_triple are standalone tests off that
route; the tests use them as its independent reference. The
independent characterization says non-membership at degree h is
equivalent to an induced gate with more than h cliques
(gates.contains_gate_ge); the tests compare both routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decomposition import atoms
from .graphs import (
    Graph,
    connected_components,
    enumerate_maximal_cliques,
    induced_subgraph,
    is_connected,
)
from .oracle import oracle_membership
from .representation import EptRepresentation, max_host_degree


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of cheapest_representation. When helly_ept, h is the
    minimum host degree (at least 2) and certificate, when attached,
    is a verified Helly representation of that degree or lower."""

    helly_ept: bool
    h: int | None
    certificate: EptRepresentation | None


def is_chordal(g: Graph) -> bool:
    """Maximum-cardinality search plus perfect-elimination check."""
    n = g.n
    weight = [0] * n
    visited = [False] * n
    visit: list[int] = []
    for _ in range(n):
        v = max((w for w in range(n) if not visited[w]), key=lambda w: (weight[w], -w))
        visited[v] = True
        visit.append(v)
        for u in g.neighbors(v):
            if not visited[u]:
                weight[u] += 1
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


def cheapest_representation(g: Graph, budget_secs: float | None = None) -> RecognitionResult:
    """Minimum h with g in Helly [h,2,2], from the scan and the atoms.

    With k the maximum clique count over g's atoms, h = k when k >= 4,
    else 2 if g is interval and 3 if not. The certificate tells which:
    - the scan tries tree shapes in ascending maximum degree;
    - the path is the only shape with m edges and degree <= 2;
    - paths on a path host derive an interval graph, and an interval
      graph's clique path (Gilmore & Hoffman 1964) is a bijection tree;
    - so the certificate lies on a path exactly when g is interval.

    The certificate is omitted when its tree's degree exceeds h, as on
    a K8 with five cliques attached (h = 3, while every bijection tree
    needs degree 4).
    """
    rep = is_helly_ept(g, budget_secs)
    if rep is None:
        return RecognitionResult(False, None, None)
    k = max(len(enumerate_maximal_cliques(atom)) for atom, _ in atoms(g))
    if k <= 3:
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

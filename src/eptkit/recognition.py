"""The decision pipeline: Helly EPT membership and the atom formula
for the minimum host degree.

Membership is decided exactly by the oracle's bijection-tree search.
Once a graph is known Helly EPT, the cheapest host degree follows from
its clique-separator atoms: with k the maximum clique count over atoms,
the answer is k when k >= 4, else 2 for interval graphs and 3 for the
remaining (chordal) cases. The independent characterization says
non-membership at degree h is equivalent to an induced gate with more
than h cliques (gates.contains_gate_ge); the tests compare both routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decomposition import atoms
from .graphs import Graph, enumerate_maximal_cliques, is_connected
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
        v = max(
            (w for w in range(n) if not visited[w]),
            key=lambda w: (weight[w], -w),
        )
        visited[v] = True
        visit.append(v)
        for u in g.neighbors(v):
            if not visited[u]:
                weight[u] += 1
    peo = visit[::-1]
    pos = [0] * n
    for i, v in enumerate(peo):
        pos[v] = i
    for v in peo:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if later:
            u = min(later, key=lambda w: pos[w])
            if any(w != u and not g.has_edge(u, w) for w in later):
                return False
    return True


def has_asteroidal_triple(g: Graph) -> bool:
    """Three pairwise non-adjacent vertices, each pair connected by a
    path avoiding the closed neighborhood of the third."""

    def reaches(a: int, b: int, banned: frozenset[int]) -> bool:
        if a in banned or b in banned:
            return False
        stack = [a]
        seen = {a}
        while stack:
            u = stack.pop()
            if u == b:
                return True
            for w in g.neighbors(u):
                if w not in seen and w not in banned:
                    seen.add(w)
                    stack.append(w)
        return False

    closed = [g.neighbors(v) | {v} for v in range(g.n)]
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            continue
        if (
            reaches(a, b, closed[c])
            and reaches(a, c, closed[b])
            and reaches(b, c, closed[a])
        ):
            return True
    return False


def is_interval(g: Graph) -> bool:
    """Interval graphs are exactly the chordal graphs without an
    asteroidal triple."""
    return is_chordal(g) and not has_asteroidal_triple(g)


def is_helly_ept(g: Graph, budget_secs: float | None = None) -> EptRepresentation | None:
    """A verified Helly representation of g, or None when exhaustive
    bijection-tree search rules one out."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("input graph must be connected")
    return oracle_membership(g, budget_secs=budget_secs)


def cheapest_representation(g: Graph, budget_secs: float | None = None) -> RecognitionResult:
    """Minimum h with g in Helly [h,2,2], via the atom formula.

    The attached certificate is the oracle's representation, which
    lives on a bijection tree; it is omitted when that tree's degree
    exceeds h, as on a K8 with five cliques attached (h = 3, while
    every bijection tree needs degree 4).
    """
    rep = is_helly_ept(g, budget_secs)
    if rep is None:
        return RecognitionResult(False, None, None)
    k = max(
        len(enumerate_maximal_cliques(atom)) for atom, _ in atoms(g)
    )
    if k <= 3:
        h = 2 if is_interval(g) else 3
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

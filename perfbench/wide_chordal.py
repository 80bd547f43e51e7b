"""Seeded, stdlib-only generator of wide chordal graphs.

A graph is a clique tree: 3 to 8 maximal cliques of 5 to 10 vertices,
each clique after the first glued to an earlier one along a separator
of 1 to 3 shared vertices. Separators are smaller than every clique,
so the glued cliques stay exactly the maximal cliques and the result
is chordal. Attaching most cliques to the first one makes branching
(non-interval) trees and claw-like separator patterns common, so the
pool mixes h = 2, h = 3 and non-members.
"""

from __future__ import annotations

import random

MIN_VERTICES = 13
MAX_VERTICES = 52
HUB_ATTACH_P = 0.7


def clique_tree(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """One clique-tree graph as (n, sorted edge list)."""
    while True:
        sizes = [rng.randint(5, 10) for _ in range(rng.randint(3, 8))]
        cliques = [list(range(sizes[0]))]
        n = sizes[0]
        for size in sizes[1:]:
            if rng.random() < HUB_ATTACH_P:
                parent = cliques[0]
            else:
                parent = cliques[rng.randrange(len(cliques))]
            sep = rng.sample(parent, rng.randint(1, 3))
            fresh = list(range(n, n + size - len(sep)))
            n += len(fresh)
            cliques.append(sep + fresh)
        if MIN_VERTICES <= n <= MAX_VERTICES:
            break
    edges = {
        (min(u, v), max(u, v)) for c in cliques for u in c for v in c if u != v
    }
    return n, sorted(edges)

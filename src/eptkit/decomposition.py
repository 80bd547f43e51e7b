"""Clique-separator decomposition into atoms.

A separator here is any complete vertex set whose removal disconnects
the graph. Atoms are the leaves of the recursive decomposition: induced
subgraphs that are connected and admit no such separator. The recursion
keeps the separator inside every part, so atoms may overlap. Each split
uses the smallest complete separator, ties broken by the sorted vertex
tuple; call it S*.

Candidates come from MCS-M (Berry, Blair, Heggernes & Peyton 2004), as
in Berry, Pogorelcnik & Simonet (2010). MCS-M numbers the vertices from
n down to 1, each time choosing an unnumbered vertex of maximum
weight; unnumbered vertices wait in buckets by weight, and any vertex
of the top bucket will do. After v is chosen, every unnumbered u gets
+1 weight and a fill edge uv when some path from v to u runs only
through unnumbered vertices of weight below u's. The result H is a
minimal triangulation of g, whichever vertex each step chose. A chosen
vertex whose weight is at most the previous one's is a generator, and
the sets madj(x) of generators x (x's H-neighbours numbered before x)
are the minimal separators of H. Those complete in g are the clique
minimal separators of g. A clique minimal separator of g is a minimal
separator of every minimal triangulation of g (Berry, Pogorelcnik &
Simonet 2010), so the list, sorted and without repeats, is the same
under every tie-break.

Why the minimum of those sets is S*:
- Every proper subset of S* is complete and comes earlier in the
  order, so it does not separate. For s in S*, g minus (S* - s) is
  connected, so s has a neighbour in every component of g - S*. Every
  component is full, and S* is a clique minimal separator.
- Every clique minimal separator of g is a minimal separator of every
  minimal triangulation of g, so S* is among the candidates. Every
  candidate separates g, so none comes before S*.

`decomposition_tree` runs MCS-M once, on the input graph, and reuses
its candidates at every node. A child induces P[S + C], where P is the
parent's subgraph, S the parent's S* and C a component of P - S; the
rest of P meets C only through S. Let T be a clique minimal separator
of P[S + C] with full components D1 and D2. If T contains S, both lie
in C and stay components of P - T. Otherwise the clique S - T meets at
most one of them, say D1; D2 lies in C and stays a component of P - T,
and D1 only grows. Either way T has two full components in P, so T is a
clique minimal separator of P and, by induction, of g. Hence the S* of
a node on vertex set V is the first candidate of g, in (size, tuple)
order, that lies in V and separates g[V].

Cost: MCS-M takes O(n(n + m)) time, one search of the unnumbered
vertices per step, and yields at most n - 1 candidates; taking a vertex
from the top weight bucket costs O(1), and the completeness test reads
the graph's neighbour masks (Graph._adj), built once with the graph.
Then one component search of g - S per candidate S,
O(n) operations on n-bit masks, lists the components of g - S with
their attachments (_separator_splits). The split loop and
recognition's separator table both read that one list; neither
searches again. Each node scans the candidates from just after its
parent's S*. The scan may skip the earlier ones: by induction, a
candidate T before S* in the parent's scan either lies outside V or
does not separate g[V]. It separates no child g[S* + C] either. T
containing S* would come after S*. Otherwise S* - T is a non-empty
clique, and each x in C - T has a path to it in g[V] - T that stays in
C until it first meets S*, so g[S* + C] - T is connected. S* separates
no child, as C is connected.

The parts of g[V] - S, for a candidate S inside V, are the non-empty
D & V over the components D of g - S, re-sorted by lowest vertex.
Distinct D are apart in g - S, so it is enough that D & V is
connected. First, every component X of g - V has a complete
neighbourhood N(X): at the root there is none. At a child V' = S* + C
of V, a component of g - V' that misses V is a component of g - V.
Any other holds vertices of the parts of g[V] - S* other than C,
whose neighbours in V' lie in S*, and components X of g - V that reach
them; such an N(X) is complete, so it lies in S* and one of those
parts, and meets V' only in S*. So the neighbourhood of the component
lies in S*. Now take a path in D between two vertices of D & V.
Where it leaves V it runs through some X, and its last vertex before
and first after lie in N(X) - S, which is complete: the two are
adjacent, and the detour can be cut. So D & V is connected.

Each candidate is scanned at one node at most, so the split loop reads
each component of each g - S once: O(n) operations on n-bit masks per
candidate. A node scans the candidates inside V from where it starts
up to S*, and its children start after S*. A later candidate T inside V
is not inside S*, or it would come before S*, so T has a vertex in one
part C of g[V] - S*, and the clique T has none in another: T lies in
one child at most. Each node still steps over the later candidates
outside V, at one mask test each.

The split loop yields the atoms as vertex masks (_atom_masks), which
is all recognition's atom test reads; only decomposition_tree, and so
atoms, builds an induced Graph per atom. recognition runs
_separator_splits once and hands its list to both the split loop and
its separator table. Both take a deadline, which MCS-M checks at every
step, the component searches at every candidate and the split loop at
every node. Nothing is exponential.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .graphs import (
    Graph,
    VertexSet,
    _components,
    _mask,
    _members,
    induced_subgraph,
)
from .oracle import _check_deadline


class AtomLeaf(NamedTuple):
    """A decomposition leaf: `vertices` index the original graph."""

    vertices: VertexSet
    graph: Graph


class SeparatorNode(NamedTuple):
    """An internal node: a complete set splitting the subproblem."""

    separator: VertexSet
    children: tuple["SeparatorNode | AtomLeaf", ...]


class CliqueDecomposition(NamedTuple):
    graph: Graph
    root: SeparatorNode | AtomLeaf

    def leaves(self) -> list[AtomLeaf]:
        out: list[AtomLeaf] = []
        stack: list[SeparatorNode | AtomLeaf] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, AtomLeaf):
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out


def _clique_minimal_separators(g: Graph, deadline: float = math.inf) -> list[VertexSet]:
    """Clique minimal separators of a connected graph, each sorted,
    ordered by (size, tuple): the complete madj sets of MCS-M
    generators. The completeness test reads g's neighbour masks, the
    fill search walks its neighbour tuples. Raises BudgetExhaustedError
    once the monotonic clock passes deadline."""
    n = g.n
    adj, near = g._adj, g._nbrs
    weight = [0] * n
    madj = [0] * n  # masks
    # unnumbered vertices wait in buckets by weight
    waiting: list[set[int]] = [set(range(n))] + [set() for _ in range(n)]
    # the step that last reached a vertex, n once it is numbered
    stamp = [-1] * n
    # the fill search's levels (below), made once: every step empties
    # each level it fills
    buckets: list[list[int]] = [[] for _ in range(n)]
    found: set[int] = set()
    previous = -1
    top = 0
    for step in range(n):
        _check_deadline(deadline)
        while not waiting[top]:
            top -= 1
        v = waiting[top].pop()
        stamp[v] = n
        if top <= previous:
            sep = madj[v]
            if all(not sep & ~adj[u] & ~(1 << u) for u in _members(sep)):
                found.add(sep)
        previous = top
        # buckets[j] holds reached vertices whose paths from v have
        # interior weights at most j; they extend paths at level j.
        # No unnumbered vertex outweighs v, so levels above top stay empty
        raised = []
        for u in near[v]:
            if stamp[u] < step:
                stamp[u] = step
                buckets[weight[u]].append(u)
                raised.append(u)
        for level in range(top + 1):
            bucket = buckets[level]
            while bucket:
                y = bucket.pop()
                for z in near[y]:
                    if stamp[z] >= step:
                        continue
                    stamp[z] = step
                    if weight[z] > level:
                        buckets[weight[z]].append(z)
                        raised.append(z)
                    else:
                        bucket.append(z)
        for u in raised:
            w = weight[u]
            waiting[w].remove(u)
            waiting[w + 1].add(u)
            weight[u] = w + 1
            madj[u] |= 1 << v
        top += 1  # a step raises the maximum weight by at most one
    return sorted(map(_members, found), key=lambda s: (len(s), s))


# Each clique minimal separator S of g, as a mask, with the components
# of g - S and their attachments (graphs._components)
Splits = list[tuple[int, list[tuple[int, int]]]]


def _first_split(splits: Splits, vertices: int, start: int = 0) -> tuple[int, list[int]] | None:
    """The index of the first of `splits`, from index `start`, whose
    separator lies inside `vertices` and disconnects g[vertices], with
    the parts of the remainder in order of lowest vertex, as masks.
    `vertices` is a node of the decomposition tree, so these parts are
    the non-empty D & vertices (see the module docstring)."""
    for i in range(start, len(splits)):
        sep, below = splits[i]
        if not sep & ~vertices:
            parts = [part & vertices for part, _ in below if part & vertices]
            if len(parts) >= 2:
                return i, sorted(parts, key=lambda part: part & -part)
    return None


def _separator_splits(g: Graph, deadline: float = math.inf) -> Splits:
    """The clique minimal separators of g, as masks, in the order of
    _clique_minimal_separators, each with one component search of g - S
    on g's neighbour masks. Raises ValueError for a disconnected g and
    BudgetExhaustedError once the monotonic clock passes deadline,
    checked at every MCS-M step and every separator."""
    adj = g._adj
    everything = (1 << g.n) - 1
    if len(_components(adj, everything)) != 1:
        raise ValueError("input graph must be connected")
    splits = []
    for sep in map(_mask, _clique_minimal_separators(g, deadline)):
        _check_deadline(deadline)
        splits.append((sep, _components(adj, everything & ~sep)))
    return splits


def find_clique_separator(g: Graph) -> tuple[VertexSet, list[VertexSet]] | None:
    """Smallest complete separator of a connected graph, with the parts
    of the remainder; lexicographic tie-break. None when g is an atom."""
    splits = _separator_splits(g)
    split = _first_split(splits, (1 << g.n) - 1)
    return None if split is None else (_members(splits[split[0]][0]), [_members(p) for p in split[1]])


def _preorder(
    n: int, splits: Splits, deadline: float = math.inf
) -> Iterator[tuple[int, tuple[int, list[int]] | None]]:
    """The nodes of the decomposition tree of the connected graph on n
    vertices with these _separator_splits, in preorder, as (vertex
    mask, split): split is _first_split's answer, None at an atom.
    Built without recursion, as a path's tree is n - 2 levels deep.
    Raises BudgetExhaustedError once the monotonic clock passes
    deadline."""
    stack = [((1 << n) - 1, 0)]  # (vertex mask, first candidate to try)
    while stack:
        _check_deadline(deadline)
        vertices, start = stack.pop()
        split = _first_split(splits, vertices, start)
        yield vertices, split
        if split is not None:
            i, parts = split
            stack.extend((splits[i][0] | part, i + 1) for part in reversed(parts))


def _atom_masks(n: int, splits: Splits, deadline: float) -> Iterator[int]:
    """The atoms of the connected graph on n vertices with these
    _separator_splits, in the order of atoms(g), as vertex masks, with
    no induced Graph built. Raises BudgetExhaustedError once the
    monotonic clock passes deadline."""
    for vertices, split in _preorder(n, splits, deadline):
        if split is None:
            yield vertices


def decomposition_tree(g: Graph) -> CliqueDecomposition:
    """Recursive decomposition; each part keeps the separator vertices."""
    splits = _separator_splits(g)
    preorder = list(_preorder(g.n, splits))
    # reverse preorder builds children first, the first child on top of `built`
    built: list[SeparatorNode | AtomLeaf] = []
    for vertices, split in reversed(preorder):
        if split is None:
            atom, members = induced_subgraph(g, _members(vertices))
            built.append(AtomLeaf(members, atom))
        else:
            i, parts = split
            built.append(SeparatorNode(_members(splits[i][0]), tuple(built.pop() for _ in parts)))
    return CliqueDecomposition(g, built.pop())


def atoms(g: Graph) -> list[tuple[Graph, VertexSet]]:
    """Atom subgraphs with their vertex maps, in decomposition order."""
    return [(leaf.graph, leaf.vertices) for leaf in decomposition_tree(g).leaves()]


def tree_to_text(tree: CliqueDecomposition) -> str:
    lines: list[str] = []
    stack: list[tuple[SeparatorNode | AtomLeaf, int]] = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node, AtomLeaf):
            lines.append(pad + "atom: " + " ".join(map(str, node.vertices)))
        else:
            lines.append(pad + "separator: " + " ".join(map(str, node.separator)))
            stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines) + "\n"


def tree_to_dot(tree: CliqueDecomposition, name: str = "decomposition") -> str:
    lines = [f"graph {name} {{"]
    # nodes, numbered in preorder, with their parent's number; the edge
    # line to a node waits on the stack until its subtree is written
    stack: list[tuple[SeparatorNode | AtomLeaf, int | None] | str] = [(tree.root, None)]
    idx = 0
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent = item
        if parent is not None:
            stack.append(f"  n{parent} -- n{idx};")
        if isinstance(node, AtomLeaf):
            label = "atom " + " ".join(map(str, node.vertices))
            lines.append(f'  n{idx} [shape=box, label="{label}"];')
        else:
            label = "sep " + " ".join(map(str, node.separator))
            lines.append(f'  n{idx} [label="{label}"];')
            stack.extend((child, idx) for child in reversed(node.children))
        idx += 1
    lines.append("}")
    return "\n".join(lines) + "\n"

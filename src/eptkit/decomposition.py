"""Clique-separator decomposition into atoms.

A separator here is any complete vertex set whose removal disconnects
the graph. Atoms are the leaves of the recursive decomposition: induced
subgraphs that are connected and admit no such separator. The recursion
keeps the separator inside every part, so atoms may overlap. Each split
uses the smallest complete separator, ties broken by the sorted vertex
tuple; call it S*.

Candidates come from MCS-M (Berry, Blair, Heggernes & Peyton 2004), as
in Berry, Pogorelcnik & Simonet (2010). MCS-M numbers the vertices from
n down to 1, each time choosing the unnumbered vertex of maximum
weight, lowest index first. After v is chosen, every unnumbered u gets
+1 weight and a fill edge uv when some path from v to u runs only
through unnumbered vertices of weight below u's. The result H is a
minimal triangulation of g. A chosen vertex whose weight is at most the
previous one's is a generator, and the sets madj(x) of generators x
(x's H-neighbours numbered before x) are the minimal separators of H.
Those complete in g are the clique minimal separators of g.

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

Cost: MCS-M takes O(n(n + m)) time and yields at most n - 1
candidates. Each node scans them from just after its parent's S*, with
one component search on vertex masks per candidate inside V: O(n)
operations on n-bit masks. Only an atom gets an induced Graph. The scan
may skip the earlier ones: by induction, a candidate T before S* in the
parent's scan either lies outside V or does not separate g[V]. It
separates no child g[S* + C] either. T containing S* would come after
S*. Otherwise S* - T is a non-empty clique, and each x in C - T has a
path to it in g[V] - T that stays in C until it first meets S*, so
g[S* + C] - T is connected. S* separates no child, as C is connected.
Nothing is exponential.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    Graph,
    VertexSet,
    _adjacency_masks,
    _components,
    _mask,
    _members,
    induced_subgraph,
    is_connected,
)


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


def _clique_minimal_separators(g: Graph) -> list[VertexSet]:
    """Clique minimal separators of a connected graph, each sorted,
    ordered by (size, tuple): the complete madj sets of MCS-M
    generators."""
    n = g.n
    adj = g._adj
    weight = [0] * n
    madj: list[list[int]] = [[] for _ in range(n)]
    unnumbered = list(range(n))
    numbered = [False] * n
    found: set[VertexSet] = set()
    previous = -1
    for _ in range(n):
        v = max(unnumbered, key=lambda u: (weight[u], -u))
        unnumbered.remove(v)
        numbered[v] = True
        if weight[v] <= previous:
            sep = frozenset(madj[v])
            if all(sep - {u} <= adj[u] for u in sep):
                found.add(tuple(sorted(sep)))
        previous = weight[v]
        # bucket j holds reached vertices whose paths from v have
        # interior weights at most j; they extend paths at level j.
        # No unnumbered vertex outweighs v.
        reached = [False] * n
        buckets: list[list[int]] = [[] for _ in range(weight[v] + 1)]
        raised = []
        for u in adj[v]:
            if not numbered[u]:
                reached[u] = True
                buckets[weight[u]].append(u)
                raised.append(u)
        for level, bucket in enumerate(buckets):
            while bucket:
                y = bucket.pop()
                for z in adj[y]:
                    if numbered[z] or reached[z]:
                        continue
                    reached[z] = True
                    if weight[z] > level:
                        buckets[weight[z]].append(z)
                        raised.append(z)
                    else:
                        bucket.append(z)
        for u in raised:
            weight[u] += 1
            madj[u].append(v)
    return sorted(found, key=lambda s: (len(s), s))


def _first_split(
    adj: list[int], separators: list[int], vertices: int, start: int = 0
) -> tuple[int, list[int]] | None:
    """The index of the first of `separators`, from index `start`,
    inside `vertices` that disconnects g[vertices], with the parts of
    the remainder. Vertex sets are masks, and adj holds g's
    _adjacency_masks."""
    for i in range(start, len(separators)):
        sep = separators[i]
        if not sep & ~vertices:
            parts = _components(adj, vertices & ~sep)
            if len(parts) >= 2:
                return i, [part for part, _ in parts]
    return None


def find_clique_separator(g: Graph) -> tuple[VertexSet, list[VertexSet]] | None:
    """Smallest complete separator of a connected graph, with the parts
    of the remainder; lexicographic tie-break. None when g is an atom."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("input graph must be connected")
    separators = _clique_minimal_separators(g)
    split = _first_split(_adjacency_masks(g), [_mask(s) for s in separators], (1 << g.n) - 1)
    return None if split is None else (separators[split[0]], [_members(p) for p in split[1]])


def decomposition_tree(g: Graph) -> CliqueDecomposition:
    """Recursive decomposition; each part keeps the separator vertices.
    Built without recursion: a path's tree is n - 2 levels deep."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("input graph must be connected")
    separators = _clique_minimal_separators(g)
    masks = [_mask(sep) for sep in separators]
    adj = _adjacency_masks(g)
    preorder = []  # (vertex mask, split) per node
    stack = [((1 << g.n) - 1, 0)]  # (vertex mask, first candidate to try)
    while stack:
        vertices, start = stack.pop()
        split = _first_split(adj, masks, vertices, start)
        preorder.append((vertices, split))
        if split is not None:
            i, parts = split
            stack.extend((masks[i] | part, i + 1) for part in reversed(parts))
    # reverse preorder builds children first, the first child on top of `built`
    built: list[SeparatorNode | AtomLeaf] = []
    for vertices, split in reversed(preorder):
        if split is None:
            atom, members = induced_subgraph(g, _members(vertices))
            built.append(AtomLeaf(members, atom))
        else:
            i, parts = split
            built.append(SeparatorNode(separators[i], tuple(built.pop() for _ in parts)))
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

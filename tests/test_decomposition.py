"""Clique-separator decomposition and atoms."""

import itertools
import random
import time

import pytest

from eptkit import decomposition
from eptkit.decomposition import (
    AtomLeaf,
    SeparatorNode,
    atoms,
    decomposition_tree,
    find_clique_separator,
    tree_to_dot,
    tree_to_text,
)
from eptkit.graphs import (
    Graph,
    canonical_form,
    complete_graph,
    connected_components,
    cycle_graph,
    induced_subgraph,
    is_connected,
    isomorphism,
    path_graph,
)
from eptkit.oracle import small_graph_corpus

TWO_TRIANGLES = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
C4_PENDANT = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
TWO_C5S = Graph(8, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (5, 6), (6, 7), (1, 7),
])


def is_complete_in(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def brute_separates(g: Graph, sep) -> bool:
    rest = [v for v in range(g.n) if v not in sep]
    if not rest:
        return False
    sub, _ = induced_subgraph(g, rest)
    return len(connected_components(sub)) >= 2


def brute_has_clique_separator(g: Graph) -> bool:
    for r in range(1, g.n - 1):
        for comb in itertools.combinations(range(g.n), r):
            if is_complete_in(g, comb) and brute_separates(g, comb):
                return True
    return False


def test_separator_worked_examples():
    sep, parts = find_clique_separator(TWO_TRIANGLES)
    assert sep == (0, 1)
    assert sorted(parts) == [(2,), (3,)]
    sep, parts = find_clique_separator(path_graph(3))
    assert sep == (1,)
    assert sorted(parts) == [(0,), (2,)]
    sep, _ = find_clique_separator(C4_PENDANT)
    assert sep == (0,)
    assert find_clique_separator(cycle_graph(4)) is None
    assert find_clique_separator(complete_graph(4)) is None
    assert find_clique_separator(Graph(1)) is None


def test_separator_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        find_clique_separator(Graph(3, [(0, 1)]))
    with pytest.raises(ValueError, match="connected"):
        decomposition_tree(Graph(0))


def test_separator_is_smallest_and_valid():
    for n in range(2, 7):
        for g in small_graph_corpus(n, connected_only=True):
            found = find_clique_separator(g)
            if found is None:
                assert not brute_has_clique_separator(g), g
                continue
            sep, parts = found
            assert is_complete_in(g, sep)
            assert brute_separates(g, sep)
            # minimality: no smaller complete set disconnects
            for r in range(1, len(sep)):
                for comb in itertools.combinations(range(g.n), r):
                    assert not (is_complete_in(g, comb) and brute_separates(g, comb))
            # parts partition the rest and are the actual components
            flat = sorted(v for part in parts for v in part)
            assert flat == [v for v in range(g.n) if v not in sep]


def test_atoms_worked_examples():
    got = atoms(TWO_TRIANGLES)
    assert [vs for _, vs in got] == [(0, 1, 2), (0, 1, 3)]
    assert all(a == complete_graph(3) for a, _ in got)

    assert [vs for _, vs in atoms(cycle_graph(4))] == [(0, 1, 2, 3)]

    got = atoms(path_graph(4))
    assert [vs for _, vs in got] == [(0, 1), (1, 2), (2, 3)]
    assert all(a == path_graph(2) for a, _ in got)

    got = atoms(TWO_C5S)
    assert sorted(vs for _, vs in got) == [(0, 1, 2, 3, 4), (0, 1, 5, 6, 7)]
    assert all(isomorphism(a, cycle_graph(5)) is not None for a, _ in got)

    got = atoms(C4_PENDANT)
    assert sorted(vs for _, vs in got) == [(0, 1, 2, 3), (0, 4)]


def test_atoms_have_no_separator_and_cover_edges():
    for n in range(1, 7):
        for g in small_graph_corpus(n, connected_only=True):
            got = atoms(g)
            covered = set()
            for sub, vs in got:
                assert is_connected(sub)
                assert not brute_has_clique_separator(sub), (g, vs)
                check, mapping = induced_subgraph(g, vs)
                assert check == sub and mapping == vs
                covered.update(
                    (vs[u], vs[v]) if vs[u] < vs[v] else (vs[v], vs[u])
                    for u, v in sub.edges
                )
            assert covered == set(g.edges), g


def test_tree_structure_and_text():
    tree = decomposition_tree(TWO_TRIANGLES)
    assert isinstance(tree.root, SeparatorNode)
    assert tree.root.separator == (0, 1)
    assert all(isinstance(c, AtomLeaf) for c in tree.root.children)
    assert tree_to_text(tree) == (
        "separator: 0 1\n"
        "  atom: 0 1 2\n"
        "  atom: 0 1 3\n"
    )
    assert tree_to_text(decomposition_tree(cycle_graph(5))) == "atom: 0 1 2 3 4\n"
    assert [leaf.vertices for leaf in tree.leaves()] == [(0, 1, 2), (0, 1, 3)]


def test_tree_to_dot():
    dot = tree_to_dot(decomposition_tree(TWO_TRIANGLES))
    assert dot.startswith("graph")
    assert 'label="sep 0 1"' in dot
    assert 'label="atom 0 1 2"' in dot
    assert "n0 -- n1" in dot


def test_nested_tree_renderings():
    # preorder numbering; the edge to a child follows the child's subtree
    tree = decomposition_tree(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)]))
    assert tree_to_text(tree) == (
        "separator: 1\n"
        "  atom: 0 1\n"
        "  separator: 2\n"
        "    atom: 1 2\n"
        "    separator: 3\n"
        "      atom: 2 3 5\n"
        "      atom: 3 4\n"
    )
    assert tree_to_dot(tree, name="g") == (
        "graph g {\n"
        '  n0 [label="sep 1"];\n'
        '  n1 [shape=box, label="atom 0 1"];\n'
        "  n0 -- n1;\n"
        '  n2 [label="sep 2"];\n'
        '  n3 [shape=box, label="atom 1 2"];\n'
        "  n2 -- n3;\n"
        '  n4 [label="sep 3"];\n'
        '  n5 [shape=box, label="atom 2 3 5"];\n'
        "  n4 -- n5;\n"
        '  n6 [shape=box, label="atom 3 4"];\n'
        "  n4 -- n6;\n"
        "  n2 -- n4;\n"
        "  n0 -- n2;\n"
        "}\n"
    )


def test_separator_on_large_complete_graph():
    # K_40 has 2^40 complete subsets, so no search may enumerate them
    assert find_clique_separator(complete_graph(40)) is None


def test_atoms_of_long_path():
    got = atoms(path_graph(60))
    assert [vs for _, vs in got] == [(i, i + 1) for i in range(59)]
    assert all(a == path_graph(2) for a, _ in got)


def test_atoms_of_path_deeper_than_recursion_limit():
    # the tree of P_n is n - 2 levels deep, so it is built and walked
    # without recursion
    got = atoms(path_graph(900))
    assert [vs for _, vs in got] == [(i, i + 1) for i in range(899)]


def test_atoms_of_cycle_with_pendants():
    # C_400 with a pendant at every cycle vertex: 401 atoms. Each node
    # resumes the candidate scan after its parent's separator, so the
    # tree is not cubic in the number of atoms
    n = 400
    g = Graph(2 * n, list(cycle_graph(n).edges) + [(i, n + i) for i in range(n)])
    start = time.perf_counter()
    got = atoms(g)
    assert time.perf_counter() - start < 5.0
    assert len(got) == n + 1
    assert sorted(vs for _, vs in got) == sorted([(i, n + i) for i in range(n)] + [tuple(range(n))])


def test_one_induced_subgraph_per_atom(monkeypatch):
    # candidates are tried on vertex masks: only an atom builds a Graph
    calls = []

    def counted(g, vertices):
        calls.append(None)
        return induced_subgraph(g, vertices)

    monkeypatch.setattr(decomposition, "induced_subgraph", counted)
    n = 600
    pendants = Graph(2 * n, list(cycle_graph(n).edges) + [(i, n + i) for i in range(n)])
    graphs = [pendants] + [g for k in range(1, 8) for g in small_graph_corpus(k, connected_only=True)]
    atom_counts = []
    for g in graphs:
        calls.clear()
        atom_counts.append(len(decomposition_tree(g).leaves()))
        assert len(calls) == atom_counts[-1], g
    assert atom_counts[0] == n + 1


def clique_tree(rng: random.Random, n_target: int) -> Graph:
    """Cliques of 3-6 vertices, each glued to an earlier clique along
    1-2 shared vertices, until the graph has n_target or more."""
    cliques = [list(range(rng.randint(3, 6)))]
    n = len(cliques[0])
    while n < n_target:
        parent = rng.choice(cliques)
        shared = rng.sample(parent, rng.randint(1, 2))
        fresh = list(range(n, n + rng.randint(2, 4)))
        n += len(fresh)
        cliques.append(shared + fresh)
    return Graph(n, {
        (u, v) for c in cliques for u in c for v in c if u < v
    })


def test_decomposition_invariant_under_relabelling_of_clique_tree():
    rng = random.Random(40)
    g = clique_tree(rng, 40)
    assert g.n >= 40 and is_connected(g)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    got_g, got_h = atoms(g), atoms(h)
    assert sorted(tuple(sorted(perm[v] for v in vs)) for _, vs in got_g) == sorted(
        vs for _, vs in got_h
    )
    assert sorted(canonical_form(a) for a, _ in got_g) == sorted(
        canonical_form(a) for a, _ in got_h
    )
    # in a chordal graph the atoms are exactly the maximal cliques
    assert all(len(a.edges) == a.n * (a.n - 1) // 2 for a, _ in got_g)

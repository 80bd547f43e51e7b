"""Property tests against networkx and the test-side references:
maximal cliques, chordality, asteroidal triples, interval graphs,
isomorphism, text round trips, clique separators, relabelling
invariance of the oracle and of cheapest_representation, the atom
test against the exhaustive search, and the automorphism generators of
the catalog gates. hypothesis and networkx are test-only dependencies;
the module is skipped without them."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eptkit.decomposition import (  # noqa: E402
    atoms,
    decomposition_tree,
    find_clique_separator,
    tree_to_text,
)
from eptkit.gates import build_gate, enumerate_gates  # noqa: E402
from eptkit.graphs import (  # noqa: E402
    Graph,
    _canonical_search,
    enumerate_maximal_cliques,
    graph_to_text,
    is_connected,
    isomorphism,
    parse_graph,
)
from eptkit.oracle import oracle_membership  # noqa: E402
from eptkit.recognition import (  # noqa: E402
    cheapest_representation,
    has_asteroidal_triple,
    is_chordal,
    is_interval,
)
from eptkit.representation import (  # noqa: E402
    is_helly,
    parse_representation,
    representation_to_text,
    verify,
)

from reference import (  # noqa: E402
    generated_group,
    is_automorphism,
    reference_clique_separator,
    reference_decomposition_tree,
    reference_is_line_like,
    vertex_orbits,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def connected_graphs(draw, max_n: int):
    """A random spanning tree (each vertex joins an earlier one) plus
    random extra edges."""
    n = draw(st.integers(1, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    keep = draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra)))
    return Graph(n, tree | {e for e, k in zip(extra, keep) if k})


@st.composite
def chordal_graphs(draw, max_n: int):
    """Each vertex joins a clique of earlier vertices grown from a
    random one, which keeps the graph chordal, plus at most one random
    extra edge, which may break that."""
    n = draw(st.integers(1, max_n))
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        clique = [draw(st.integers(0, v - 1))]
        for w in draw(st.permutations(range(v))):
            if w not in clique and adj[w].issuperset(clique) and draw(st.booleans()):
                clique.append(w)
        for w in clique:
            adj[v].add(w)
            adj[w].add(v)
    edges = {(u, v) for v in range(n) for u in adj[v] if u < v}
    if n >= 2 and draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def to_networkx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@SETTINGS
@given(graphs())
def test_maximal_cliques_match_networkx(g):
    expected = sorted(tuple(sorted(c)) for c in nx.find_cliques(to_networkx(g)))
    assert enumerate_maximal_cliques(g) == expected


@SETTINGS
@given(graphs())
def test_is_chordal_matches_networkx(g):
    assert is_chordal(g) == nx.is_chordal(to_networkx(g))


@SETTINGS
@given(graphs())
def test_has_asteroidal_triple_matches_networkx(g):
    assert has_asteroidal_triple(g) == (not nx.is_at_free(to_networkx(g)))


@SETTINGS
@given(graphs())
def test_is_interval_matches_networkx(g):
    g_nx = to_networkx(g)
    assert is_interval(g) == (nx.is_chordal(g_nx) and nx.is_at_free(g_nx))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_oracle_invariant_under_relabelling(data):
    g = data.draw(graphs())
    assume(is_connected(g) and len(enumerate_maximal_cliques(g)) <= 7)
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    reps = [oracle_membership(g), oracle_membership(h)]
    assert (reps[0] is None) == (reps[1] is None)
    if reps[0] is None:
        return
    assert reps[0].tree.max_degree() == reps[1].tree.max_degree()
    for graph, rep in zip((g, h), reps):
        assert verify(rep, graph) == (True, None)
        assert is_helly(rep) == (True, None)


@SETTINGS
@given(st.data())
def test_isomorphism_matches_networkx(data):
    g1 = data.draw(graphs())
    if data.draw(st.booleans()):
        g2 = relabel(g1, data.draw(st.permutations(range(g1.n))))
    else:
        g2 = data.draw(graphs())
    expected = nx.is_isomorphic(to_networkx(g1), to_networkx(g2))
    mapping = isomorphism(g1, g2)
    assert (mapping is not None) == expected
    if mapping is not None:
        assert relabel(g1, mapping) == g2


@SETTINGS
@given(graphs())
def test_graph_text_round_trip(g):
    assert parse_graph(graph_to_text(g)) == g


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_representation_text_round_trip(g):
    assume(is_connected(g) and len(enumerate_maximal_cliques(g)) <= 7)
    rep = oracle_membership(g)
    assume(rep is not None)
    text = representation_to_text(rep)
    assert parse_representation(text) == rep
    assert representation_to_text(parse_representation(text)) == text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cheapest_invariant_under_relabelling(data):
    g = data.draw(connected_graphs(7))
    assume(len(enumerate_maximal_cliques(g)) <= 7)
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    got_g, got_h = cheapest_representation(g), cheapest_representation(h)
    assert (got_g.helly_ept, got_g.h) == (got_h.helly_ept, got_h.h)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(connected_graphs(10))
def test_clique_separator_matches_reference(g):
    assert find_clique_separator(g) == reference_clique_separator(g)
    assert tree_to_text(decomposition_tree(g)) == tree_to_text(
        reference_decomposition_tree(g)
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(connected_graphs(8))
def test_atom_test_rejects_only_non_members(g):
    # the obstruction is the first atom that is neither complete nor
    # line-like on its clique graph, and only non-members have one
    assume(len(enumerate_maximal_cliques(g)) <= 9)
    failing = [
        vertices
        for atom, vertices in atoms(g)
        if len(enumerate_maximal_cliques(atom)) > 1 and not reference_is_line_like(atom)
    ]
    result = cheapest_representation(g)
    assert result.obstruction == (failing[0] if failing else None)
    if failing:
        assert oracle_membership(g) is None


@SETTINGS
@given(chordal_graphs(10))
def test_chordal_atoms_are_complete(g):
    assume(nx.is_chordal(to_networkx(g)))
    for atom, _ in atoms(g):
        assert len(atom.edges) == atom.n * (atom.n - 1) // 2


def test_automorphism_generators_match_networkx_on_catalog():
    from networkx.algorithms.isomorphism import GraphMatcher

    recipes = list(enumerate_gates(12).values())
    assert len(recipes) == 203
    for recipe in recipes:
        g = build_gate(recipe).graph
        generators = _canonical_search(g._adj)[2]
        assert all(is_automorphism(g, image) for image in generators), recipe
        h = to_networkx(g)
        automorphisms = [
            tuple(m[v] for v in range(g.n)) for m in GraphMatcher(h, h).isomorphisms_iter()
        ]
        assert vertex_orbits(g.n, generators) == vertex_orbits(g.n, automorphisms), recipe
        assert len(generated_group(g.n, generators)) == len(automorphisms), recipe

"""Property tests against networkx: maximal cliques, chordality, and
relabelling invariance of the oracle. hypothesis and networkx are
test-only dependencies; the module is skipped without them."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eptkit.graphs import Graph, enumerate_maximal_cliques, is_connected  # noqa: E402
from eptkit.oracle import oracle_membership  # noqa: E402
from eptkit.recognition import is_chordal  # noqa: E402
from eptkit.representation import is_helly, verify  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_oracle_invariant_under_relabelling(data):
    g = data.draw(graphs())
    assume(is_connected(g) and len(enumerate_maximal_cliques(g)) <= 7)
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    reps = [oracle_membership(g), oracle_membership(h)]
    assert (reps[0] is None) == (reps[1] is None)
    if reps[0] is None:
        return
    assert reps[0].tree.max_degree() == reps[1].tree.max_degree()
    for graph, rep in zip((g, h), reps):
        assert verify(rep, graph) == (True, None)
        assert is_helly(rep) == (True, None)

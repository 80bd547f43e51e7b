"""Recognition pipeline: interval, membership, the atom test and its
route, atom formula, crosscheck."""

import gc
import itertools
import math
import random
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from eptkit import decomposition, oracle, recognition
from eptkit.decomposition import atoms
from eptkit.graphs import (
    BoundExceededError,
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_maximal_cliques,
    induced_subgraph,
    is_connected,
    path_graph,
)
from eptkit.gates import build_gate, contains_gate_ge, enumerate_gates
from eptkit.oracle import BudgetExhaustedError, small_graph_corpus
from eptkit.recognition import (
    RecognitionResult,
    SideWitness,
    cheapest_representation,
    has_asteroidal_triple,
    helly_h_membership,
    is_chordal,
    is_helly_ept,
    is_interval,
)
from eptkit.representation import is_helly, max_host_degree, verify
from reference import find_chordless_cycle_ge, oracle_min_h, reference_is_line_like, separating_splits

S3_GRAPH = Graph(6, [
    (2, 3), (3, 5), (2, 5), (0, 2), (0, 3), (1, 3), (1, 5), (2, 4), (4, 5),
])
TWO_C5S = Graph(8, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (5, 6), (6, 7), (1, 7),
])
# spider: subdivided claw, chordal but with an asteroidal triple
SPIDER = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
# wide-chordal w09, a K8 with five cliques attached: chordal, not
# interval, so h = 3, but every host tree with one edge per clique
# needs a degree-4 vertex
W09 = Graph(40, {
    e
    for c in (
        range(8), [0, *range(19, 28)], [1, 7, *range(12, 19)],
        [2, 5, *range(28, 32)], [3, 5, *range(32, 40)], [4, *range(8, 12)],
    )
    for e in itertools.combinations(c, 2)
})
K34 = Graph(7, [(a, b) for a in range(3) for b in range(3, 7)])
C6_PENDANT = Graph(7, list(cycle_graph(6).edges) + [(0, 6)])
# corpus7 a0808: vertex 1 lies in three maximal cliques that separate
# nothing, {0, 1, 4}, {1, 2, 3} and {1, 6}
A0808 = Graph(7, [
    (0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6),
])
WHEEL5 = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])


def load_corpus7() -> list[Graph]:
    """perfbench's corpus7: the 996 connected graphs on up to 7
    vertices, as the networkx atlas labels them."""
    out = []
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "corpus7.txt"
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            _, n, _, *edges = line.split()
            out.append(Graph(int(n), [tuple(map(int, e.split("-"))) for e in edges]))
    return out


def brute_interval(g: Graph) -> bool:
    """Consecutive clique arrangement check over all clique orders."""
    cliques = enumerate_maximal_cliques(g)
    for order in itertools.permutations(range(len(cliques))):
        good = True
        for v in range(g.n):
            idx = sorted(i for i, ci in enumerate(order) if v in cliques[ci])
            if idx != list(range(idx[0], idx[-1] + 1)):
                good = False
                break
        if good:
            return True
    return False


def test_chordal_known_graphs():
    assert is_chordal(complete_graph(5))
    assert is_chordal(path_graph(6))
    assert is_chordal(S3_GRAPH)
    assert is_chordal(SPIDER)
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(6))
    assert is_chordal(Graph(1))


def test_chordal_matches_chordless_cycle_search():
    for n in range(1, 6):
        for g in small_graph_corpus(n):
            assert is_chordal(g) == (find_chordless_cycle_ge(g) is None), g


def test_asteroidal_triples():
    assert has_asteroidal_triple(SPIDER)
    assert has_asteroidal_triple(S3_GRAPH)
    assert has_asteroidal_triple(cycle_graph(6))
    assert not has_asteroidal_triple(path_graph(6))
    assert not has_asteroidal_triple(cycle_graph(5))
    assert not has_asteroidal_triple(complete_graph(4))


def test_interval_matches_consecutive_arrangement():
    for n in range(1, 6):
        for g in small_graph_corpus(n):
            assert is_interval(g) == brute_interval(g), g


def test_interval_known_graphs():
    assert is_interval(path_graph(7))
    assert is_interval(complete_graph(4))
    assert not is_interval(SPIDER)
    assert not is_interval(S3_GRAPH)
    assert not is_interval(cycle_graph(4))


def test_membership_basic():
    rep = is_helly_ept(cycle_graph(5))
    assert rep is not None
    assert verify(rep, cycle_graph(5)) == (True, None)
    assert is_helly(rep)[0]
    assert is_helly_ept(S3_GRAPH) is None


def test_membership_preconditions():
    with pytest.raises(ValueError, match="connected"):
        is_helly_ept(Graph(3, [(0, 1)]))
    with pytest.raises(ValueError, match="connected"):
        is_helly_ept(Graph(0))
    k34 = Graph(7, [(a, b) for a in range(3) for b in range(3, 7)])
    with pytest.raises(BoundExceededError, match="graph has more than 9"):
        is_helly_ept(k34)


def disjoint_union(*parts: Graph) -> Graph:
    edges, n = [], 0
    for part in parts:
        edges += [(n + u, n + v) for u, v in part.edges]
        n += part.n
    return Graph(n, edges)


@pytest.mark.parametrize("g", [
    Graph(0),
    disjoint_union(path_graph(2), path_graph(3)),  # chordal, 3 cliques
    disjoint_union(path_graph(4), path_graph(4)),  # chordal, 6 cliques
    disjoint_union(C6_PENDANT, path_graph(2)),  # not chordal, several atoms
    disjoint_union(cycle_graph(5), cycle_graph(5)),  # the one-atom test declines
    disjoint_union(cycle_graph(5), Graph(1)),
], ids=["empty", "chordal-3", "chordal-6", "atoms", "two-c5", "c5-isolated"])
def test_every_route_refuses_a_disconnected_input(g):
    # whichever check settles connectivity on the route: the clique
    # forest's root count, or the search in _separator_splits
    with pytest.raises(ValueError, match="^input graph must be connected$"):
        cheapest_representation(g)


def test_cheapest_known_values():
    for n in range(4, 8):
        result = cheapest_representation(cycle_graph(n))
        assert result.helly_ept and result.h == n
        assert result.certificate is not None
        assert max_host_degree(result.certificate) <= n
    assert cheapest_representation(path_graph(4)).h == 2
    assert cheapest_representation(complete_graph(5)).h == 2
    assert cheapest_representation(Graph(1)).h == 2
    assert cheapest_representation(TWO_C5S).h == 5


def test_cheapest_chordal_split():
    # chordal non-interval needs a branching host: h = 3
    assert is_chordal(SPIDER) and not is_interval(SPIDER)
    result = cheapest_representation(SPIDER)
    assert result.h == 3
    # interval stays on a path host: h = 2
    result = cheapest_representation(path_graph(5))
    assert result.h == 2


def test_cheapest_rejects_non_members():
    result = cheapest_representation(S3_GRAPH)
    assert result == (False, None, None) or (
        not result.helly_ept and result.h is None and result.certificate is None
    )


def test_cheapest_agrees_with_oracle_sample():
    for g in (
        cycle_graph(4), cycle_graph(7), path_graph(6), complete_graph(4),
        TWO_C5S, SPIDER,
    ):
        result = cheapest_representation(g)
        assert result.helly_ept
        assert result.h == oracle_min_h(g), g


def test_cheapest_below_bijection_tree_minimum():
    assert len(enumerate_maximal_cliques(W09)) == 6
    assert cheapest_representation(W09).h == 3
    assert oracle_min_h(W09) == 4


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return call


def test_atom_test_answers_without_the_scan(monkeypatch):
    monkeypatch.setattr(recognition, "_scan", refuse("_scan"))
    # K_{3,4} is one atom whose vertices lie in 3 or 4 cliques; the
    # 5-wheel is one atom whose hub lies in all 5 triangles
    for g in (K34, WHEEL5):
        assert cheapest_representation(g) == RecognitionResult(
            False, None, None, obstruction=tuple(range(g.n))
        )


def test_chordal_input_skips_the_decomposition(monkeypatch):
    monkeypatch.setattr(recognition, "_atom_masks", refuse("_atom_masks"))
    result = cheapest_representation(W09)
    assert result.helly_ept and result.h == 3


def test_scan_gets_what_the_atom_test_left(monkeypatch):
    deadlines = []

    def record(cliques, adj, deadline):
        deadlines.append(deadline)

    monkeypatch.setattr(recognition, "_scan", record)
    # the route and its deadline checks (oracle._check_deadline) read one
    # clock: its first reading starts the budget, and every later one
    # says what the steps before the scan have spent. C6 with a pendant
    # vertex has two separating cliques, so the scan decides it
    for begin, spent in ((100.0, 1.5), (200.0, 3.0)):
        readings = itertools.chain([begin], itertools.repeat(begin + spent))
        clock = SimpleNamespace(monotonic=lambda: next(readings))
        monkeypatch.setattr(recognition, "time", clock)
        monkeypatch.setattr(oracle, "time", clock)
        if spent < 2.5:
            assert not cheapest_representation(C6_PENDANT, budget_secs=2.5).helly_ept
        else:
            # out of time before the scan: the decomposition stops
            with pytest.raises(BudgetExhaustedError):
                cheapest_representation(C6_PENDANT, budget_secs=2.5)
    # the scan gets the route's own deadline, start + budget
    assert deadlines == [102.5]


def test_atom_test_names_the_failing_atom():
    # a 5-wheel glued on one rim edge to a C4: the C4 atom is line-like,
    # the wheel's is not
    g = Graph(8, list(WHEEL5.edges) + [(0, 6), (6, 7), (7, 1)])
    result = cheapest_representation(g)
    assert not result.helly_ept and result.obstruction == (0, 1, 2, 3, 4, 5)
    # S3 passes the atom test; the side test rules it out at its middle
    # triangle, whose three ears pairwise share a vertex
    assert cheapest_representation(S3_GRAPH) == RecognitionResult(
        False, None, None,
        side_witness=SideWitness((2, 3, 5), ((0,), (1,), (4,)), ((2, 3), (3, 5), (2, 5))),
    )


@pytest.mark.parametrize("n", [10, 50, 2000])
def test_cycle_answered_by_its_star(monkeypatch, n):
    # no maximal clique of C_n separates it, so its star answers at any n
    # and the scan's 9-clique bound never applies; C_n is one atom by the
    # two-clique test and its 2-connected clique graph, so the route
    # never decomposes it and is near-linear throughout
    monkeypatch.setattr(recognition, "_scan", refuse("_scan"))
    monkeypatch.setattr(recognition, "_atom_masks", refuse("_atom_masks"))
    g = cycle_graph(n)
    gc.collect()
    start = time.perf_counter()
    result = cheapest_representation(g)
    total = time.perf_counter() - start
    assert result.helly_ept and result.h == n
    rep = result.certificate
    assert max_host_degree(rep) == n and rep.tree.n == n + 1 and rep.tree.degree(0) == n
    assert verify(rep, g) == (True, None)
    gc.collect()
    start = time.perf_counter()
    assert is_helly(rep) == (True, None)
    assert time.perf_counter() - start < 1.0
    assert total < 1.0


def line_graph(edges: list[tuple[int, int]]) -> Graph:
    """A vertex per edge, two adjacent when their edges share an end."""
    return Graph(len(edges), [
        (i, j) for (i, e), (j, f) in itertools.combinations(enumerate(edges), 2) if set(e) & set(f)
    ])


def doubled_cycle(n: int) -> Graph:
    """C_n with every vertex doubled by a true twin: vertices 2i and
    2i + 1."""
    return Graph(2 * n, [(2 * i, 2 * i + 1) for i in range(n)] + [
        (2 * i + a, 2 * ((i + 1) % n) + b) for i in range(n) for a in (0, 1) for b in (0, 1)
    ])


@pytest.mark.parametrize("g", [cycle_graph(4), cycle_graph(5), cycle_graph(4000),
                               doubled_cycle(4), doubled_cycle(5), doubled_cycle(1000)])
def test_one_atom_skips_the_decomposition(monkeypatch, g):
    # the two-clique test on the twin quotient and a 2-connected clique
    # graph make g one atom, so a large cycle answers within a small
    # budget, which MCS-M on it alone would overrun
    monkeypatch.setattr(
        decomposition, "_clique_minimal_separators", refuse("_clique_minimal_separators")
    )
    monkeypatch.setattr(recognition, "_scan", refuse("_scan"))
    result = cheapest_representation(g, budget_secs=0.5)
    n = len(enumerate_maximal_cliques(g))
    assert result.helly_ept and result.h == n
    assert verify(result.certificate, g) == (True, None)


def test_one_atom_count_matches_the_decomposition():
    # for a connected graph that is not complete, the test is exact: one
    # atom that passes the atom test is one whose clique graph is
    # 2-connected (_atom_clique_count), so no such graph is missed
    rng = random.Random(20261021)
    graphs = [g for n in range(1, 8) for g in small_graph_corpus(n)]
    for _ in range(1000):
        n = rng.randint(4, 14)
        p = rng.choice((0.2, 0.35, 0.5))
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    base = small_graph_corpus(6, connected_only=True)
    for _ in range(300):
        g = rng.choice(base)
        graphs.append(twin_blow_up(g, [rng.randint(1, 3) for _ in range(g.n)]))
    graphs += [cycle_graph(n) for n in range(4, 12)] + [doubled_cycle(n) for n in range(4, 8)]
    # line graphs of triangle-free graphs pass the two-clique test, and
    # their clique graph is the graph itself: two C_4 at a node, C_4 and
    # C_5 at a node and two C_4 joined by an edge have cut nodes; K_{2,3}
    # and the 3-cube are 2-connected
    for edges in (
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 4)],
        [(a, b) for a in range(2) for b in range(2, 5)],
        [(a, a ^ 1 << i) for a in range(8) for i in range(3) if a < a ^ 1 << i],
    ):
        graphs.append(line_graph(edges))
    seen = Counter()
    for g in graphs:
        adj = g._adj
        got = recognition._one_atom_count(adj)
        if not is_connected(g) or len(g.edges) == g.n * (g.n - 1) // 2:
            assert got is None, g.edges
            continue
        pieces = atoms(g)
        want = None
        if len(pieces) == 1:
            want = recognition._atom_clique_count(adj, (1 << g.n) - 1)
        assert got == want, g.edges
        seen[want is not None] += 1
    assert seen[True] >= 50 and seen[False] >= 1000
    assert [recognition._one_atom_count(g._adj) for g in graphs[-5:]] == [
        None, None, None, 5, 8,
    ]


def cycle_with_pendants(n: int, t: int) -> Graph:
    """C_n with t pendant vertices at vertex 0."""
    return Graph(n + t, list(cycle_graph(n).edges) + [(0, n + i) for i in range(t)])


def test_deadline_reaches_the_steps_before_the_scan():
    # C_4000 with a pendant is not one atom, and MCS-M on it alone takes
    # seconds, so the budget stops it
    g = cycle_with_pendants(4000, 1)
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(BudgetExhaustedError):
        cheapest_representation(g, budget_secs=0.1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("t, bound", [(2000, 1.0), (9995, 2.0)])
def test_hub_inputs_reach_the_clique_bound(t, bound):
    # C_5 with t pendants, up to the parse bound: every clique {0, p}
    # holds vertex 0, the one clique minimal separator, so the split
    # loop and the separator table share one search of g - {0}, where a
    # search of g minus each clique took 4.4 s at t = 2 000. The route
    # runs to the scan's clique bound at the default budget (about
    # 0.05 s, and 0.35-0.55 s at t = 9 995, on 2 CPUs)
    g = cycle_with_pendants(5, t)
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(BoundExceededError):
        cheapest_representation(g)
    assert time.perf_counter() - start < bound


def test_route_searches_g_minus_s_once_per_separator(monkeypatch):
    # C_600 with a pendant at every cycle vertex has 600 clique minimal
    # separators {i}. The route searches g once to check it is
    # connected and g - S once per separator; the split loop and the
    # separator table read those parts and search nothing more
    n = 600
    g = Graph(2 * n, list(cycle_graph(n).edges) + [(i, n + i) for i in range(n)])
    assert len(decomposition._clique_minimal_separators(g)) == n
    search = decomposition._components
    searched = []

    def counted(adj, rest):
        searched.append(rest)
        return search(adj, rest)

    monkeypatch.setattr(decomposition, "_components", counted)
    monkeypatch.setattr(recognition, "_components", counted)
    with pytest.raises(BoundExceededError):
        cheapest_representation(g)
    assert len(searched) == 1 + n


def test_steps_before_the_scan_check_the_deadline(monkeypatch):
    # the one-atom test, MCS-M, the search of g - S per separator, the
    # split loop, the separator table and the side test each raise on a
    # deadline already past, where without one they answer
    past = time.monotonic() - 1.0
    with pytest.raises(BudgetExhaustedError):
        recognition._one_atom_count(cycle_graph(6)._adj, past)
    assert recognition._one_atom_count(cycle_graph(6)._adj, math.inf) == 6
    splits = decomposition._separator_splits(C6_PENDANT, math.inf)
    with pytest.raises(BudgetExhaustedError):
        decomposition._clique_minimal_separators(C6_PENDANT, past)
    mcs_m = decomposition._clique_minimal_separators
    with monkeypatch.context() as patched:  # MCS-M without a deadline
        patched.setattr(decomposition, "_clique_minimal_separators", lambda g, _: mcs_m(g))
        with pytest.raises(BudgetExhaustedError):
            decomposition._separator_splits(C6_PENDANT, past)
    with pytest.raises(BudgetExhaustedError):
        next(decomposition._preorder(C6_PENDANT.n, splits, past))
    assert len(list(decomposition._preorder(C6_PENDANT.n, splits))) == 3
    cliques = [recognition._mask(c) for c in enumerate_maximal_cliques(C6_PENDANT)]
    with pytest.raises(BudgetExhaustedError):
        recognition._separator_table(C6_PENDANT.n, cliques, splits, past)
    separating, _ = recognition._separator_table(C6_PENDANT.n, cliques, splits, math.inf)
    assert separating == [True, True, False, False, False, False, False]
    # S3's middle triangle has three ears, each attached to two of its
    # vertices: the separators {2, 3}, {2, 5} and {3, 5}
    cliques = [recognition._mask(c) for c in enumerate_maximal_cliques(S3_GRAPH)]
    splits = decomposition._separator_splits(S3_GRAPH, math.inf)
    _, table = recognition._separator_table(S3_GRAPH.n, cliques, splits, math.inf)
    with pytest.raises(BudgetExhaustedError):
        recognition._side_witness(S3_GRAPH, cliques, table, past)
    assert recognition._side_witness(S3_GRAPH, cliques, table, math.inf).clique == (2, 3, 5)


def test_route_builds_no_atom_graph(monkeypatch):
    # the atom test reads the atoms as vertex masks, on corpus7's
    # non-chordal inputs; only the public decomposition builds a Graph
    # per atom
    monkeypatch.setattr(decomposition, "induced_subgraph", refuse("induced_subgraph"))
    monkeypatch.setattr(recognition, "_scan", lambda cliques, adj, deadline: None)
    graphs = [g for g in load_corpus7() if not is_chordal(g)]
    assert len(graphs) == 642
    for g in graphs:
        cheapest_representation(g)


def test_catalog_gates_answered_by_their_star(monkeypatch):
    # every gate is one atom with no separating clique, so even those
    # with 10 or more cliques get h = k and a degree-k star
    monkeypatch.setattr(recognition, "_scan", refuse("_scan"))
    past_bound = 0
    for recipe in enumerate_gates(12).values():
        gate = build_gate(recipe)
        k = recipe.clique_count()
        result = cheapest_representation(gate.graph)
        assert result.helly_ept and result.h == k, recipe
        assert max_host_degree(result.certificate) == k
        assert verify(result.certificate, gate.graph) == (True, None)
        assert is_helly(result.certificate) == (True, None)
        past_bound += k > 9
    assert past_bound == 57


def test_pendant_filter(monkeypatch):
    monkeypatch.setattr(recognition, "_scan", refuse("_scan"))
    assert cheapest_representation(A0808) == RecognitionResult(False, None, None)
    # a C10 glued at vertex 5 makes 16 cliques past the scan's bound, and
    # vertex 1's three cliques still separate nothing
    ring = [5, *range(7, 16)]
    glued = Graph(16, list(A0808.edges) + [(ring[i - 1], ring[i]) for i in range(10)])
    assert len(enumerate_maximal_cliques(glued)) == 16
    adj = glued._adj
    assert all(
        recognition._atom_clique_count(adj, recognition._mask(vertices)) is not None
        for _, vertices in atoms(glued)
    )
    assert cheapest_representation(glued) == RecognitionResult(False, None, None)


def test_separating_cliques_match_a_search_per_clique():
    # the separator table (F2) and the search per clique it replaced,
    # against removing each clique and searching
    rng = random.Random(20261018)
    graphs = [C6_PENDANT, A0808, TWO_C5S, W09]
    graphs += [g for n in range(4, 8) for g in small_graph_corpus(n, connected_only=True)]
    for _ in range(300):
        n = rng.randint(4, 12)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        if is_connected(g):
            graphs.append(g)
    seen = Counter()
    for g in graphs:
        cliques = enumerate_maximal_cliques(g)
        expected = [
            not is_connected(induced_subgraph(g, set(range(g.n)) - set(c))[0]) for c in cliques
        ]
        adj = g._adj
        masks = [recognition._mask(c) for c in cliques]
        splits = decomposition._separator_splits(g, math.inf)
        separating, _ = recognition._separator_table(g.n, masks, splits, math.inf)
        assert separating == expected, g
        pieces = [recognition._mask(vertices) for _, vertices in atoms(g)]
        splits = separating_splits(adj, masks, pieces)
        assert [len(split) > 1 for split in splits] == expected, g
        seen.update(expected)
    assert seen[True] >= 100 and seen[False] >= 100


def test_atom_test_decides_before_listing_cliques(monkeypatch):
    # K_{3x20}, the complement of 20 disjoint triangles, is one atom
    # with 3^20 maximal cliques; each neighbourhood is a K_{3x19}
    monkeypatch.setattr(recognition, "_clique_masks", refuse("_clique_masks"))
    g = Graph(60, [(u, v) for u, v in itertools.combinations(range(60), 2) if u // 3 != v // 3])
    gc.collect()
    start = time.perf_counter()
    result = cheapest_representation(g, budget_secs=0.1)
    assert result == RecognitionResult(False, None, None, obstruction=tuple(range(60)))
    assert time.perf_counter() - start < 1.0


def twin_blow_up(g: Graph, sizes: list[int]) -> Graph:
    """g with each vertex v replaced by a clique of sizes[v] true twins."""
    start = list(itertools.accumulate([0, *sizes]))
    edges = [
        (start[v] + i, start[v] + j)
        for v in range(g.n)
        for i, j in itertools.combinations(range(sizes[v]), 2)
    ]
    edges += [
        (start[u] + i, start[v] + j)
        for u, v in g.edges
        for i in range(sizes[u])
        for j in range(sizes[v])
    ]
    return Graph(start[-1], edges)


def test_atom_clique_count_matches_reference():
    # complete, or line-like on the clique graph with Bron-Kerbosch's
    # count, on every atom of the corpus, of random graphs and of twin
    # blow-ups, whose true twins random graphs rarely make
    rng = random.Random(20261019)
    graphs = [g for n in range(1, 8) for g in small_graph_corpus(n, connected_only=True)]
    for _ in range(1500):
        n = rng.randint(4, 13)
        p = rng.choice((0.2, 0.35, 0.5))
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        if is_connected(g):
            graphs.append(g)
    base = small_graph_corpus(6, connected_only=True)
    for _ in range(200):
        g = rng.choice(base)
        graphs.append(twin_blow_up(g, [rng.randint(1, 3) for _ in range(g.n)]))
    seen = Counter()
    for g in graphs:
        adj = g._adj
        for atom, vertices in atoms(g):
            cliques = len(enumerate_maximal_cliques(atom))
            want = cliques if cliques == 1 or reference_is_line_like(atom) else None
            got = recognition._atom_clique_count(adj, recognition._mask(vertices))
            assert got == want, atom.edges
            kind = "complete" if want == 1 else "neither" if want is None else "line-like"
            twins = len({atom.neighbors(v) | {v} for v in range(atom.n)}) < atom.n
            seen[kind, twins] += 1
    assert seen == {
        ("complete", False): 1,
        ("complete", True): 4229,
        ("line-like", False): 276,
        ("line-like", True): 231,
        ("neither", False): 854,
        ("neither", True): 168,
    }


def test_route_lists_no_atom_cliques(monkeypatch):
    # k comes from the atom test, so only the listing for _pendant_answer
    # lists cliques, once, for g itself
    calls = []
    listing = recognition._clique_masks

    def counted(adj):
        calls.append(adj)
        return listing(adj)

    monkeypatch.setattr(recognition, "_clique_masks", counted)
    assert len(atoms(C6_PENDANT)) == 2
    result = cheapest_representation(C6_PENDANT)
    assert result.helly_ept and result.h == 6
    assert calls == [C6_PENDANT._adj]


def test_passing_atoms_have_one_clique_or_four():
    # so a non-chordal graph that passes the atom test has k >= 4, and
    # cheapest_representation's k == 1 branch covers every k <= 3
    chordal = passing = 0
    for n in range(1, 8):
        for g in small_graph_corpus(n, connected_only=True):
            if is_chordal(g):
                chordal += 1
                continue
            counts = []
            adj = g._adj
            for _, vertices in atoms(g):
                count = recognition._atom_clique_count(adj, recognition._mask(vertices))
                if count is None:
                    break
                counts.append(count)
            else:
                passing += 1
                assert all(k == 1 or k >= 4 for k in counts)
                assert max(counts) >= 4
    assert (chordal, passing) == (354, 246)


def test_helly_h_membership():
    assert helly_h_membership(cycle_graph(5), 5)
    assert not helly_h_membership(cycle_graph(5), 4)
    assert helly_h_membership(TWO_C5S, 5)
    assert not helly_h_membership(TWO_C5S, 4)
    assert helly_h_membership(path_graph(6), 3)
    # monotone in h
    for h in range(5, 9):
        assert helly_h_membership(cycle_graph(5), h)
    assert not helly_h_membership(cycle_graph(4), 2)
    assert helly_h_membership(path_graph(6), 2)
    with pytest.raises(ValueError, match="h >= 2"):
        helly_h_membership(path_graph(6), 1)
    with pytest.raises(ValueError, match="not Helly EPT"):
        helly_h_membership(S3_GRAPH, 4)


def test_characterization_crosscheck():
    for g in (cycle_graph(5), TWO_C5S, path_graph(5), complete_graph(4)):
        h_min = cheapest_representation(g).h
        assert helly_h_membership(g, 3) == (h_min <= 3), g
        for h in (3, 4, 5, 6):
            assert (h_min <= h) == (contains_gate_ge(g, h) is None), (g, h)

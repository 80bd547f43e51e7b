"""Core graph type, parsing, cliques, canonical forms."""

import contextlib
import copy
import gc
import itertools
import pickle
import random
import sys
import tracemalloc

import pytest

from eptkit.graphs import (
    PARSE_VERTEX_BOUND,
    BoundExceededError,
    Graph,
    GraphParseError,
    _canonical_search,
    canonical_form,
    canonical_labeling,
    complete_graph,
    connected_components,
    cycle_graph,
    enumerate_maximal_cliques,
    graph_to_dot,
    graph_to_text,
    induced_subgraph,
    is_connected,
    isomorphism,
    parse_graph,
    path_graph,
)
from eptkit.gates import build_gate, enumerate_gates
from eptkit.oracle import small_graph_corpus, tree_shapes
from eptkit.representation import HostTree
from reference import (
    find_chordless_cycle_ge,
    generated_group,
    group_order,
    is_automorphism,
    reference_canonical_search,
    vertex_orbits,
)


def brute_cliques(g: Graph) -> list[tuple[int, ...]]:
    completes = [
        set(comb)
        for r in range(1, g.n + 1)
        for comb in itertools.combinations(range(g.n), r)
        if all(g.has_edge(u, v) for u, v in itertools.combinations(comb, 2))
    ]
    return sorted(
        tuple(sorted(s)) for s in completes if not any(s < t for t in completes)
    )


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    for perm in itertools.permutations(range(g1.n)):
        if all(
            g2.has_edge(perm[u], perm[v]) == g1.has_edge(u, v)
            for u, v in itertools.combinations(range(g1.n), 2)
        ):
            return True
    return False


def relabeled(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_graph_normalization_and_accessors():
    g = Graph(4, [(1, 0), (1, 2), (2, 1), (3, 2)])
    assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    assert g.neighbors(2) == {1, 3}
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 3)
    assert g == path_graph(4)
    assert hash(g) == hash(path_graph(4))


def check_adjacency_views(obj, n: int, edges) -> None:
    """obj's neighbour masks, sorted neighbour tuples, neighbors, degree
    and has_edge against neighbour sets read off its edges; has_edge on
    every pair up to 60 vertices, and above that on each vertex v's
    neighbours and on v - 2 and v + 2."""
    want: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        want[u].add(v)
        want[v].add(u)
    assert obj._adj == tuple(sum(1 << w for w in near) for near in want)
    assert obj._nbrs == tuple(tuple(sorted(near)) for near in want)
    for v, near in enumerate(want):
        got = obj.neighbors(v)
        assert type(got) is frozenset and got == near
        assert obj.degree(v) == len(near)
        others = range(n) if n <= 60 else {w for w in (v - 2, v + 2) if 0 <= w < n} | near
        assert all(obj.has_edge(v, w) == (w in near) for w in others)
    # the views are all it keeps per vertex: no neighbour set each. A
    # subclass such as HostTree declares no slots of its own, so the
    # walk covers every class it inherits from
    names = [name for cls in type(obj).__mro__ for name in vars(cls).get("__slots__", ())]
    assert {"_adj", "_nbrs"} <= set(names), names
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, tuple):
            assert not any(isinstance(x, (set, frozenset)) for x in value), name


def test_adjacency_views_match_the_edges():
    rng = random.Random(20261031)
    graphs = [g for n in range(8) for g in small_graph_corpus(n)]
    for _ in range(200):
        n = rng.randint(1, 60)
        p = rng.choice((0.05, 0.15, 0.3, 0.6))
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    graphs.append(path_graph(10_000))
    for g in graphs:
        check_adjacency_views(g, g.n, g.edges)
    for m in range(10):
        for shape in tree_shapes(m):
            tree = shape.host_tree()
            check_adjacency_views(tree, tree.n, tree.edges)


def test_graphs_are_frozen():
    # a write would leave the views and the hash stale, so a set or dict
    # holding the graph would no longer find it
    for g in (
        Graph(3, [(0, 1), (1, 2)]),
        parse_graph("3 2\n0 1\n1 2\n"),
        induced_subgraph(path_graph(4), [0, 1, 2])[0],
        HostTree(3, [(0, 1), (1, 2)]),
    ):
        held = {g}
        for name in ("n", "edges", "_adj", "_nbrs"):
            before = getattr(g, name)
            with pytest.raises(AttributeError):
                setattr(g, name, frozenset() if name == "edges" else 5)
            with pytest.raises(AttributeError):
                delattr(g, name)
            assert getattr(g, name) == before
        assert g in held and g.has_edge(1, 2)


def test_frozen_graphs_copy_and_pickle():
    for g in (path_graph(4), Graph(0), HostTree(4, [(2, 1), (0, 1), (1, 3)])):
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert type(twin) is type(g) and twin == g and hash(twin) == hash(g)
            assert repr(twin) == repr(g) and twin.edges == g.edges
            assert twin._adj == g._adj and twin._nbrs == g._nbrs


def test_host_trees_equal_graphs_on_their_edges():
    # a HostTree keeps its edges as a sorted tuple and a Graph as a
    # frozenset; equality and the hash must not see the difference
    for n, edges in ((2, [(0, 1)]), (1, []), (4, [(2, 1), (0, 1), (1, 3)])):
        tree, graph = HostTree(n, edges), Graph(n, edges)
        assert tree == graph and graph == tree and not tree != graph
        assert hash(tree) == hash(graph)
        assert tree in {graph} and graph in {tree} and {tree: 1}[graph] == 1
        assert repr(tree) != repr(graph)
    assert HostTree(3, [(0, 1), (1, 2)]) != Graph(3, [(0, 1), (0, 2)])
    assert HostTree(2, [(0, 1)]) != Graph(3, [(0, 1)])


def test_accessors_refuse_vertices_out_of_range():
    # a negative vertex would otherwise read the mask or tuple of a
    # vertex counted from the end, and a large one would raise IndexError
    for obj in (path_graph(3), HostTree(3, [(0, 1), (1, 2)])):
        for call in (
            lambda: obj.has_edge(-1, 1),
            lambda: obj.has_edge(1, -1),
            lambda: obj.has_edge(7, 1),
            lambda: obj.has_edge(1, 3),
            lambda: obj.degree(-1),
            lambda: obj.degree(3),
            lambda: obj.neighbors(-1),
            lambda: obj.neighbors(3),
        ):
            with pytest.raises(ValueError, match=r"vertex -?\d+ out of range for n=3"):
                call()
        assert obj.has_edge(1, 0) and obj.degree(1) == 2 and obj.neighbors(1) == {0, 2}


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1)


def test_parse_graph_round_trip():
    text = "4 3\n0 1\n1 2\n2 3\n"
    g = parse_graph(text)
    assert g == path_graph(4)
    assert graph_to_text(g) == text
    assert parse_graph(graph_to_text(g)) == g


def test_parse_graph_comments_and_blanks():
    g = parse_graph("# a path\n\n3 2\n0 1\n\n# middle\n1 2\n")
    assert g == path_graph(3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("2\n", "header"),
        ("2 x\n", "header"),
        ("2 1\nnope\n", "edge"),
        ("2 1\n0 0\n", "self-loop"),
        ("2 1\n0 5\n", "out of range"),
        ("2 1\n7 5\n", "vertex 7 out of range"),
        ("3 2\n0 1\n0 1\n", "duplicate"),
        ("3 1\n0 1\n1 2\n", "more than 1 edge"),
        ("3 2\n0 1\n", "expected 2 edges"),
    ],
)
def test_parse_graph_errors(text, message):
    with pytest.raises(GraphParseError, match=message):
        parse_graph(text)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("20 1\n0 1_0\n", "expected edge line", 2),
        ("3 1\n0 +1\n", "expected edge line", 2),
        ("٣ 0\n", "expected header", 1),
        ("3 1\n# a comment\n0 ١\n", "expected edge line", 3),
    ],
)
def test_parse_graph_reads_only_ascii_decimal_digits(text, message, line):
    # int() takes each of these tokens ('1_0' as 10, '+1' as 1
    # and the Arabic-Indic digits)
    with pytest.raises(GraphParseError, match=message) as info:
        parse_graph(text)
    assert info.value.line == line


@pytest.mark.parametrize(
    "data, line",
    [
        (b"2 1\n0 \xff1\n", 2),
        (b"# caf\xe9\n2 0\n", 1),
        (b"2 0\r\n\r\n# \xe2\x82\n", 3),
        (b"2 1\r0 1\r\xc3", 3),
    ],
)
def test_parse_graph_names_the_line_of_a_byte_not_utf8(data, line):
    # numbered as the records are, comments, blank lines and every
    # line break included
    with pytest.raises(GraphParseError, match="is not UTF-8") as info:
        parse_graph(data)
    assert info.value.line == line


def test_parse_graph_normalizes_each_edge():
    g = parse_graph("3 2\n1 0\n2 1\n")
    assert g == path_graph(3) and hash(g) == hash(path_graph(3))
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.neighbors(1) == {0, 2}
    with pytest.raises(GraphParseError, match="duplicate edge 0 1") as info:
        parse_graph("3 2\n0 1\n1 0\n")
    assert info.value.line == 3


def test_parse_graph_vertex_bound():
    assert parse_graph(f"{PARSE_VERTEX_BOUND} 0\n").n == PARSE_VERTEX_BOUND
    with pytest.raises(GraphParseError, match="limited to") as info:
        parse_graph(f"{PARSE_VERTEX_BOUND + 1} 0\n")
    assert info.value.line == 1


def test_parse_error_carries_line_number():
    try:
        parse_graph("3 2\n0 1\n0 0\n")
    except GraphParseError as exc:
        assert exc.line == 3
        assert "line 3" in str(exc)
    else:
        pytest.fail("expected a parse error")


def test_graph_to_dot_mentions_all_edges():
    dot = graph_to_dot(cycle_graph(4))
    assert dot.startswith("graph")
    for u, v in cycle_graph(4).sorted_edges():
        assert f"{u} -- {v}" in dot


def test_constructors():
    assert cycle_graph(5).degree(0) == 2
    assert len(complete_graph(4).edges) == 6
    assert path_graph(1).n == 1 and not path_graph(1).edges
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_maximal_cliques_known_graphs():
    assert enumerate_maximal_cliques(cycle_graph(5)) == [
        (0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
    ]
    assert enumerate_maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert enumerate_maximal_cliques(Graph(1)) == [(0,)]
    assert enumerate_maximal_cliques(Graph(3)) == [(0,), (1,), (2,)]


def test_maximal_cliques_against_brute_force():
    for n in range(1, 6):
        for g in small_graph_corpus(n):
            assert enumerate_maximal_cliques(g) == brute_cliques(g), g


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to the current stack depth plus frames."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_maximal_cliques_without_recursion():
    k200 = complete_graph(200)
    with recursion_headroom(50):
        assert enumerate_maximal_cliques(k200) == [tuple(range(200))]


def test_connectivity():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(3, [(0, 1)]))
    assert connected_components(Graph(5, [(0, 1), (3, 4)])) == [
        (0, 1), (2,), (3, 4),
    ]
    assert is_connected(Graph(1))


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, mapping = induced_subgraph(g, [1, 2, 4])
    assert mapping == (1, 2, 4)
    assert sub == Graph(3, [(0, 1)])
    for bad in ([7], [2, 5, 1], [-1, 3], [4, 4, 9]):
        with pytest.raises(ValueError, match="out of range for n=5"):
            induced_subgraph(g, bad)
    # keeping every vertex, in any order, gives g itself
    assert induced_subgraph(g, [4, 0, 3, 1, 2, 0]) == (g, (0, 1, 2, 3, 4))
    assert induced_subgraph(g, range(5))[0] is g
    # against filtering all of g's edges, on vertices given unsorted and
    # repeated
    rng = random.Random(20261019)
    for _ in range(500):
        n = rng.randint(0, 20)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        kept = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))] if n else []
        sub, mapping = induced_subgraph(g, kept)
        assert mapping == tuple(sorted(set(kept)))
        pos = {v: i for i, v in enumerate(mapping)}
        assert sub == Graph(len(mapping), [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos])


def test_chordless_cycles():
    assert find_chordless_cycle_ge(cycle_graph(6)) == (0, 1, 2, 3, 4, 5)
    assert find_chordless_cycle_ge(cycle_graph(4), len_min=5) is None
    assert find_chordless_cycle_ge(complete_graph(4)) is None
    assert find_chordless_cycle_ge(path_graph(5)) is None
    # chord splits C4 into triangles
    assert find_chordless_cycle_ge(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])) is None
    cyc = find_chordless_cycle_ge(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]))
    assert cyc == (0, 1, 2, 3)


def test_chordless_cycle_without_recursion():
    c300 = cycle_graph(300)
    with recursion_headroom(50):
        assert find_chordless_cycle_ge(c300) == tuple(range(300))


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(7)
    for n in range(2, 8):
        for g in small_graph_corpus(min(n, 6))[:20]:
            base = canonical_form(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == base


def test_canonical_form_separates_classes():
    # class counts for all graphs on exactly n vertices
    for n, expected in [(1, 1), (2, 2), (3, 4), (4, 11)]:
        forms = set()
        for bits in range(1 << (n * (n - 1) // 2)):
            pairs = list(itertools.combinations(range(n), 2))
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            forms.add(canonical_form(Graph(n, edges)))
        assert len(forms) == expected


def test_canonical_labeling_order_is_permutation():
    g = cycle_graph(6)
    _, order = canonical_labeling(g)
    assert sorted(order) == list(range(6))
    with pytest.raises(BoundExceededError):
        canonical_labeling(Graph(17))


def test_canonical_cache_holds_masks_not_graphs():
    # an entry keeps its key, the graph's neighbour masks, and the form
    # and order: about 1.1 KB for a dense 16-vertex graph, where the
    # Graph it was computed from takes about 13 KB
    rng = random.Random(20261020)
    pairs = list(itertools.combinations(range(16), 2))
    count = 1500
    canonical_labeling.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(count):
            canonical_labeling(Graph(16, [e for e in pairs if rng.random() < 0.85]))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert canonical_labeling.cache_info().currsize == count
    assert retained / count < 2048, retained / count
    canonical_labeling.cache_clear()


def test_canonical_cache_accounting():
    # equal graphs hit whatever object carries them, relabelled copies
    # miss, and a graph over the bound counts as a miss but is not kept
    canonical_labeling.cache_clear()
    c6 = cycle_graph(6)
    canonical_labeling(c6)
    canonical_labeling(c6)
    canonical_labeling(cycle_graph(6))
    canonical_labeling(Graph(6, [((u + 1) % 6, (v + 1) % 6) for u, v in c6.edges]))
    isomorphism(path_graph(5), Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3)]))
    for n in range(5):
        for g in small_graph_corpus(n):
            canonical_form(g)
            canonical_form(Graph(g.n, g.edges))
    for recipe in list(enumerate_gates(12).values())[:40]:
        canonical_form(build_gate(recipe).graph)
        canonical_form(build_gate(recipe).graph)
    for g in (Graph(0), Graph(1), complete_graph(16), Graph(16)):
        canonical_labeling(g)
    with pytest.raises(BoundExceededError):
        canonical_labeling(Graph(17))
    assert canonical_labeling.cache_info() == (63, 64, 32768, 63)


# twin pairs are swapped by automorphisms that no search leaf shows,
# since the search keeps one vertex of each twin group
C4 = cycle_graph(4)
K23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])


def test_automorphism_generators_match_brute_force():
    graphs = [g for n in range(7) for g in small_graph_corpus(n)] + [C4, K23]
    assert len(graphs) == 210
    for g in graphs:
        generators = _canonical_search(g._adj)[2]
        assert all(is_automorphism(g, image) for image in generators), g.edges
        brute = [
            perm
            for perm in itertools.permutations(range(g.n))
            if is_automorphism(g, perm)
        ]
        assert vertex_orbits(g.n, generators) == vertex_orbits(g.n, brute), g.edges
        assert generated_group(g.n, generators) == set(brute), g.edges


def test_collecting_automorphisms_leaves_the_labeling_alone():
    for g in [C4, K23, complete_graph(5), Graph(4), cycle_graph(6)]:
        assert _canonical_search(g._adj)[:2] == canonical_labeling(g)


def test_canonical_search_matches_reference():
    # one search tree walked in one order: forms and orders are the
    # reference's, byte for byte. The reference keeps one generator per
    # maximal leaf, the library prunes by orbit, so the two generator
    # tuples differ but must generate the same group: both lie in
    # Aut(g), so equal orders mean equal groups
    rng = random.Random(20261019)

    def shuffled(g: Graph) -> Graph:
        perm = list(range(g.n))
        rng.shuffle(perm)
        return relabeled(g, perm)

    corpus = [g for n in range(8) for g in small_graph_corpus(n)]
    gates = [build_gate(recipe).graph for recipe in enumerate_gates(12).values()]
    trees = [Graph(s.n, s.edges) for m in range(1, 10) for s in tree_shapes(m)]
    random_graphs = []
    for _ in range(2000):
        n = rng.randint(1, 16)
        p = rng.random()
        pairs = itertools.combinations(range(n), 2)
        random_graphs.append(Graph(n, [e for e in pairs if rng.random() < p]))
    assert len(gates) == 203
    cases = corpus + [shuffled(g) for g in corpus + gates] + trees + random_graphs
    for g in cases:
        want: list = []
        form, order, got = _canonical_search(g._adj)
        assert (form, order) == reference_canonical_search(g, want), g.edges
        assert all(is_automorphism(g, image) for image in got), g.edges
        assert group_order(g.n, got) == group_order(g.n, want), g.edges
        assert vertex_orbits(g.n, got) == vertex_orbits(g.n, want), g.edges


def _square_grid_graph(n: int, step) -> Graph:
    """Z_n x Z_n, vertex (a, b) numbered a * n + b, with (a, b) joined
    to (a + da, b + db) for each offset (da, db) in step."""
    edges = set()
    for a, b in itertools.product(range(n), repeat=2):
        for da, db in step:
            u, v = a * n + b, (a + da) % n * n + (b + db) % n
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph(n * n, edges)


def test_orbit_pruning_keeps_generators_few():
    # one generator per automorphism would be 2n - 1 for C_n and
    # 2^8 * 8! for eight disjoint edges
    for n in range(4, 17):
        assert len(_canonical_search(cycle_graph(n)._adj)[2]) <= 3, n
    eight_k2 = Graph(16, [(2 * i, 2 * i + 1) for i in range(8)])
    generators = _canonical_search(eight_k2._adj)[2]
    assert len(generators) <= 16
    assert group_order(16, generators) == 2**8 * 40320


def test_automorphism_group_orders_of_symmetric_graphs():
    petersen = Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    q4 = Graph(16, [(v, v ^ 1 << b) for v in range(16) for b in range(4) if v < v ^ 1 << b])
    shrikhande = _square_grid_graph(4, [(0, 1), (1, 0), (1, 1)])
    rook = _square_grid_graph(4, [(0, d) for d in (1, 2, 3)] + [(d, 0) for d in (1, 2, 3)])
    three_c5 = Graph(15, [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(3) for i in range(5)])
    for g, order in [
        (petersen, 120),
        (q4, 384),
        (shrikhande, 192),
        (rook, 1152),
        (three_c5, 6000),
    ]:
        generators = _canonical_search(g._adj)[2]
        assert all(is_automorphism(g, image) for image in generators), g.edges
        assert group_order(g.n, generators) == order, g.edges
        assert len(generated_group(g.n, generators)) == order, g.edges


def test_isomorphism_matches_brute_force():
    rng = random.Random(13)
    graphs = [g for n in range(2, 6) for g in small_graph_corpus(n)]
    for g in graphs[:40]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        mapping = isomorphism(g, h)
        assert mapping is not None
        for u, v in itertools.combinations(range(g.n), 2):
            assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
    assert isomorphism(path_graph(4), cycle_graph(4)) is None
    assert isomorphism(Graph(3, [(0, 1)]), Graph(3, [(1, 2)])) is not None
    # agreement with the exhaustive check on mixed pairs
    sample = graphs[:12]
    for g1, g2 in itertools.combinations(sample, 2):
        assert (isomorphism(g1, g2) is not None) == brute_isomorphic(g1, g2)

"""Exhaustive representation oracle: trees, shapes, membership, corpus."""

import gc
import itertools
import random
import time
from collections import Counter

import pytest

from eptkit import _tables, oracle
from eptkit.gates import ExtensionStep, GateRecipe, build_gate
from eptkit.graphs import (
    BoundExceededError,
    Graph,
    canonical_form,
    canonical_labeling,
    complete_graph,
    cycle_graph,
    enumerate_maximal_cliques,
    is_connected,
    path_graph,
)
from eptkit.oracle import (
    CLIQUE_BOUND,
    BudgetExhaustedError,
    _clique_order,
    oracle_membership,
    small_graph_corpus,
    tree_shapes,
)
from eptkit.recognition import cheapest_representation
from eptkit.representation import (
    EdgeClique,
    classify_clique,
    is_helly,
    representation_to_text,
    verify,
)
from reference import enumerate_trees, oracle_min_h, reference_clique_order, reference_tree_shapes

TWO_C5S = Graph(8, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (5, 6), (6, 7), (1, 7),
])
GATE5 = GateRecipe(4, (ExtensionStep(0, 3, 2),))
# a corpus7 member with 8 maximal cliques whose first accepting shape
# has maximum degree 4, so lower-degree shapes are refuted first
CORPUS7_M8 = Graph(7, [
    (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6),
])


def test_enumerate_trees_counts():
    # Cayley: (m+1)^(m-1) labeled trees on m+1 vertices
    for m, expected in [(1, 1), (2, 3), (3, 16), (4, 125)]:
        trees = list(enumerate_trees(m))
        assert len(trees) == expected
        assert len({t.edges for t in trees}) == expected
        assert all(t.n == m + 1 for t in trees)


def test_enumerate_trees_degree_filter():
    paths = list(enumerate_trees(3, max_degree=2))
    assert len(paths) == 12
    assert all(t.max_degree() == 2 for t in paths)
    stars = [t for t in enumerate_trees(3) if t.max_degree() == 3]
    assert len(stars) == 4
    with pytest.raises(ValueError):
        list(enumerate_trees(0))
    with pytest.raises(BoundExceededError):
        list(enumerate_trees(10))


def test_tree_shapes_counts():
    # unlabeled trees with m edges (m+1 vertices)
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for m in range(10):
        shapes = tree_shapes(m)
        assert len(shapes) == expected[m]
        forms = {canonical_form(Graph(s.n, s.edges)) for s in shapes}
        assert len(forms) == len(shapes)
        assert all(s.m == m for s in shapes)
    # ordering puts low-degree hosts first
    degrees = [s.host_tree().max_degree() for s in tree_shapes(6)]
    assert degrees == sorted(degrees)
    assert degrees[0] == 2 and degrees[-1] == 6


def test_tree_shapes_refuses_negative_edge_count():
    # refused at once, not after recursing down past the Python stack
    for m in (-1, -5000):
        with pytest.raises(ValueError, match="edge count must be non-negative"):
            tree_shapes(m)


def test_tree_shapes_match_the_generator_hanging_every_leaf():
    # the shipped shapes keep the generator's shapes, labelling and
    # order; the paths built from root-path masks match those of a
    # walk from every root, and the shipped orbit masks those of the
    # AHU passes
    for m in range(CLIQUE_BOUND + 1):
        got, want = tree_shapes(m), reference_tree_shapes(m)
        assert [s.edges for s in got] == [r.edges for r in want], m
        for s, r in zip(got, want):
            pairs = itertools.combinations(range(r.n), 2)
            assert s.paths == {r.path_mask[a][b]: (a, b) for a, b in pairs}, s.edges
            assert {mask: s.path(mask) for mask in s.paths} == r.paths, s.edges
            assert s.host_tree().max_degree() == r.max_degree, s.edges
            assert s.orbit_masks == r.orbit_masks(), s.edges


def test_lifts_grow_a_span_by_the_paths_to_both_ends_of_an_edge():
    # lift[e] ^ lift[j] | 1 << j, the scan's growth rule, is the union
    # of the reference's paths from e's lower end w to j's two ends
    checked = 0
    for m in range(CLIQUE_BOUND + 1):
        for s, r in zip(tree_shapes(m), reference_tree_shapes(m)):
            assert s.edges == r.edges
            for e, (_, w) in enumerate(s.edges):
                for j, (a, b) in enumerate(s.edges):
                    grown = s.lift[e] ^ s.lift[j] | 1 << j
                    assert grown == r.path_mask[w][a] | r.path_mask[w][b], (s.edges, e, j)
            checked += 1
    assert checked == 201


def test_tree_shapes_stay_out_of_the_canonical_cache():
    # reading the shape table leaves no shape graph in the cache
    tree_shapes.cache_clear()
    canonical_labeling.cache_clear()
    tree_shapes(9)
    assert canonical_labeling.cache_info().currsize == 0


def brute_orbit_representatives(shape, automorphisms, fixed=None):
    """Mask of the lowest-index edge in each orbit of the edge
    permutations that fix edge `fixed` (all of them when None)."""
    orbits = [{j} for j in range(shape.m)]
    for image in automorphisms:
        if fixed is None or image[fixed] == fixed:
            for j, k in enumerate(image):
                orbits[j].add(k)
    return sum(1 << j for j in range(shape.m) if min(orbits[j]) == j)


def test_orbit_masks_match_brute_force():
    shapes = [s for m in range(7) for s in tree_shapes(m)]
    assert len(shapes) == 25
    for shape in shapes:
        index = {e: i for i, e in enumerate(shape.edges)}
        automorphisms = []
        for perm in itertools.permutations(range(shape.n)):
            image = [
                index.get((perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a]))
                for a, b in shape.edges
            ]
            if None not in image:
                automorphisms.append(image)
        level0, level1 = shape.orbit_masks
        assert level0 == brute_orbit_representatives(shape, automorphisms), shape.edges
        assert sorted(level1) == [j for j in range(shape.m) if level0 >> j & 1]
        for r, mask in level1.items():
            expected = brute_orbit_representatives(shape, automorphisms, fixed=r)
            assert mask == expected & ~(1 << r), (shape.edges, r)


def test_shape_paths_match_brute_force():
    shapes = [s for m in range(CLIQUE_BOUND + 1) for s in tree_shapes(m)]
    assert len(shapes) == 201
    for shape in shapes:
        assert len(shape.paths) == shape.n * (shape.n - 1) // 2, shape.edges
        for mask in range(1, 1 << shape.m):
            edges = {e for j, e in enumerate(shape.edges) if mask >> j & 1}
            touched = Counter(v for e in edges for v in e)
            # an edge set of a forest is connected when it touches one
            # vertex more than it has edges
            if len(touched) != len(edges) + 1:
                continue
            is_path = max(touched.values()) <= 2
            assert (mask in shape.paths) == is_path, (shape.edges, mask)
            if is_path:
                path = shape.path(mask)
                ends = [v for v, d in touched.items() if d == 1]
                assert path[0] == min(ends) and path[-1] == max(ends), (shape.edges, path)
                assert len(path) == len(set(path)) == len(edges) + 1
                assert {(min(p, q), max(p, q)) for p, q in zip(path, path[1:])} == edges


@pytest.mark.parametrize("g, text", [
    (cycle_graph(6),
     "7 6\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n"
     "0 : 1 0 2\n1 : 1 0 3\n2 : 3 0 4\n3 : 4 0 5\n4 : 5 0 6\n5 : 2 0 6\n"),
    (cycle_graph(8),
     "9 8\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n"
     "0 : 1 0 2\n1 : 1 0 3\n2 : 3 0 4\n3 : 4 0 5\n4 : 5 0 6\n5 : 6 0 7\n"
     "6 : 7 0 8\n7 : 2 0 8\n"),
    (TWO_C5S,
     "10 9\n0 1\n0 2\n0 4\n0 6\n0 8\n1 3\n1 5\n1 7\n1 9\n"
     "0 : 2 0 1 3\n1 : 4 0 1 5\n2 : 4 0 6\n3 : 6 0 8\n4 : 2 0 8\n5 : 3 1 7\n"
     "6 : 7 1 9\n7 : 5 1 9\n"),
    (build_gate(GATE5).graph,
     "6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n"
     "0 : 1 0 2\n1 : 1 0 3\n2 : 3 0 4\n3 : 2 0 4\n4 : 1 0 5\n5 : 4 0 5\n"),
    (CORPUS7_M8,
     "9 8\n0 1\n0 2\n0 6\n0 8\n1 3\n1 5\n1 7\n2 4\n"
     "0 : 2 0 1 3\n1 : 5 1 7\n2 : 6 0 8\n3 : 2 4\n4 : 3 1 5\n5 : 6 0 1 7\n"
     "6 : 4 2 0 8\n"),
    # no cliques: the scan on tree_shapes(0) accepts the one-vertex tree
    (Graph(0), "1 0\n"),
], ids=["c6", "c8", "two-c5s", "gate5", "corpus7-m8", "empty"])
def test_first_assignment_certificates_pinned(g, text):
    # orbit pruning skips only placements equivalent to one tried
    # earlier, so the scan keeps returning the first assignment
    assert representation_to_text(oracle_membership(g)) == text


def span_edges_of(tree, touched):
    """Union of pairwise tree paths between touched vertices, as a set
    of tree edges (test-local, set-based)."""
    adj = {v: set(tree.neighbors(v)) for v in range(tree.n)}

    def path_between(a, b):
        prev = {a: None}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for w in adj[u]:
                if w not in prev:
                    prev[w] = u
                    stack.append(w)
        out = set()
        u = b
        while prev[u] is not None:
            p = prev[u]
            out.add((p, u) if p < u else (u, p))
            u = p
        return out

    out = set()
    for a, b in itertools.combinations(sorted(touched), 2):
        out |= path_between(a, b)
    return out


def edge_set_is_path(tree, edges):
    if not edges:
        return True
    touched = {v for e in edges for v in e}
    deg = {v: 0 for v in touched}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    if any(d > 2 for d in deg.values()):
        return False
    # connectivity over the chosen edges
    start = next(iter(touched))
    seen = {start}
    stack = [start]
    eset = set(edges)
    while stack:
        u = stack.pop()
        for w in tree.neighbors(u):
            key = (u, w) if u < w else (w, u)
            if key in eset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == touched


def labeled_min_h(g):
    """Independent membership search: labeled trees and explicit clique
    permutations instead of shape canonicalization and bitmask spans."""
    cliques = enumerate_maximal_cliques(g)
    m = len(cliques)
    if m == 0:
        return 2
    best = None
    for tree in enumerate_trees(m):
        d = tree.max_degree()
        if best is not None and d >= best:
            continue
        for perm in itertools.permutations(range(m)):
            spans = []
            ok = True
            for v in range(g.n):
                touched = set()
                for i, c in enumerate(cliques):
                    if v in c:
                        touched.update(tree.edges[perm[i]])
                span = span_edges_of(tree, touched)
                for i, c in enumerate(cliques):
                    if v in c:
                        a, b = tree.edges[perm[i]]
                        span.add((a, b) if a < b else (b, a))
                if not edge_set_is_path(tree, span):
                    ok = False
                    break
                spans.append(span)
            if not ok:
                continue
            if all(
                not (spans[u] & spans[v])
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ):
                best = max(2, d)
                break
    return best


def test_oracle_matches_labeled_search():
    for n in range(1, 5):
        for g in small_graph_corpus(n, connected_only=True):
            assert oracle_min_h(g) == labeled_min_h(g), g
    picks = [
        g
        for g in small_graph_corpus(5, connected_only=True)
        if len(enumerate_maximal_cliques(g)) <= 4
    ]
    for g in picks:
        assert oracle_min_h(g) == labeled_min_h(g), g
    assert labeled_min_h(cycle_graph(5)) == 5 == oracle_min_h(cycle_graph(5))


def test_membership_known_values():
    for n in range(4, 8):
        assert oracle_min_h(cycle_graph(n)) == n
    assert oracle_min_h(path_graph(5)) == 2
    assert oracle_min_h(Graph(1)) == 2
    assert oracle_min_h(Graph(3)) == 2
    assert oracle_min_h(complete_graph(2)) == 2
    assert oracle_min_h(complete_graph(4)) == 2
    assert oracle_min_h(Graph(4, [(0, 1), (0, 2), (0, 3)])) == 2
    assert oracle_min_h(TWO_C5S) == 5
    gate5 = build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),)))
    assert oracle_min_h(gate5.graph) == 5


def test_membership_absent():
    s3 = Graph(6, [
        (2, 3), (3, 5), (2, 5), (0, 2), (0, 3), (1, 3), (1, 5), (2, 4), (4, 5),
    ])
    assert oracle_membership(s3) is None
    assert oracle_min_h(s3) is None


def test_membership_budget_is_keyword_only():
    # a bare number after the graph is refused, not taken for seconds
    with pytest.raises(TypeError):
        oracle_membership(cycle_graph(5), 4)


def test_returned_representation_postconditions():
    for g in (
        cycle_graph(6),
        path_graph(5),
        complete_graph(4),
        TWO_C5S,
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ):
        rep = oracle_membership(g)
        assert rep is not None
        assert verify(rep, g) == (True, None)
        ok, _ = is_helly(rep)
        assert ok
        for c in enumerate_maximal_cliques(g):
            assert isinstance(classify_clique(rep, c), EdgeClique)


def test_oracle_bounds_and_budget():
    k34 = Graph(7, [(a, b) for a in range(3) for b in range(3, 7)])
    with pytest.raises(BoundExceededError, match="more than 9"):
        oracle_membership(k34)
    with pytest.raises(BoundExceededError):
        oracle_min_h(k34)
    # a relabeled copy; nothing is kept between calls, so any labeling
    # runs the scan and its deadline
    perm = [7, 6, 5, 4, 3, 2, 1, 0]
    shuffled = Graph(8, [(perm[u], perm[v]) for u, v in TWO_C5S.edges])
    with pytest.raises(BudgetExhaustedError):
        oracle_membership(shuffled, budget_secs=1e-9)


def test_clique_listing_stops_past_the_bound():
    # K_{3x12}, the complement of 12 disjoint triangles, has 3^12 maximal
    # cliques; the oracle refuses it at the tenth, whatever its budget
    g = Graph(36, [(u, v) for u, v in itertools.combinations(range(36), 2) if u // 3 != v // 3])
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="more than 9"):
        oracle_membership(g, budget_secs=60.0)
    assert time.perf_counter() - start < 0.5


def test_clique_order_matches_reference():
    # the mask order equals the rescan, on the corpus and on seeded
    # random clique lists with repeated and isolated vertices
    rng = random.Random(20261018)
    lists = [enumerate_maximal_cliques(g) for n in range(1, 8) for g in small_graph_corpus(n)]
    for _ in range(2000):
        size = rng.randint(1, 14)
        lists.append([
            tuple(sorted(rng.sample(range(size), rng.randint(1, min(size, 4)))))
            for _ in range(rng.randint(0, 12))
        ])
    for cliques in lists:
        assert _clique_order(cliques) == reference_clique_order(cliques), cliques
    # C_2000's sorted cliques are (0, 1), (0, 1999), (1, 2), ...,
    # (1998, 1999): each step links the next index, so the order is the
    # identity
    assert _clique_order(enumerate_maximal_cliques(cycle_graph(2000))) == list(range(2000))


def test_certificates_on_one_shape_share_its_host_tree():
    # each tree shape validates its HostTree once, on its first accept,
    # and the route's scan hands out the same tree
    c5 = cycle_graph(5)
    relabelled = Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    a, b = oracle_membership(c5), oracle_membership(relabelled)
    assert a.paths != b.paths and a.tree is b.tree
    pendant = Graph(7, list(cycle_graph(6).edges) + [(0, 6)])
    moved = Graph(7, list(cycle_graph(6).edges) + [(3, 6)])
    c, d = (cheapest_representation(g).certificate for g in (pendant, moved))
    assert c.paths != d.paths and c.tree is d.tree is oracle_membership(pendant).tree


def test_earlier_calls_do_not_answer_later_ones():
    assert oracle_membership(TWO_C5S) is not None
    with pytest.raises(BudgetExhaustedError):
        oracle_membership(TWO_C5S, budget_secs=1e-9)


def test_zero_budget_exhausts_the_scan_at_its_first_node():
    # the scan reads the clock at every node, so a zero budget runs out
    # before the first placement, however small the search; the route
    # reads it after its maximum-cardinality search too, so C_10000,
    # answered by its star without a scan, runs out there
    with pytest.raises(BudgetExhaustedError):
        oracle_membership(cycle_graph(5), budget_secs=0.0)
    for g in (path_graph(4), cycle_graph(10_000)):
        with pytest.raises(BudgetExhaustedError):
            cheapest_representation(g, budget_secs=0.0)


def test_oracle_rejects_bad_budget():
    perm = [1, 0, 3, 2, 5, 4, 7, 6]
    shuffled = Graph(8, [(perm[u], perm[v]) for u, v in TWO_C5S.edges])
    for budget in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="non-negative number of seconds"):
            oracle_membership(shuffled, budget_secs=budget)


def test_cached_scan_rejects_bad_budget():
    c6 = cycle_graph(6)
    assert oracle_membership(c6) is not None
    for budget in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="non-negative number of seconds"):
            oracle_membership(c6, budget_secs=budget)


def test_corpus_counts():
    for n, total, conn in [
        (1, 1, 1), (2, 2, 1), (3, 4, 2), (4, 11, 6),
        (5, 34, 21), (6, 156, 112), (7, 1044, 853),
    ]:
        allg = small_graph_corpus(n)
        assert len(allg) == total
        assert len({canonical_form(g) for g in allg}) == total
        connected = small_graph_corpus(n, connected_only=True)
        assert len(connected) == conn
        assert all(is_connected(g) for g in connected)
    assert small_graph_corpus(0) == ()
    with pytest.raises(BoundExceededError):
        small_graph_corpus(8)
    with pytest.raises(ValueError):
        small_graph_corpus(-1)


def test_tables_are_split_once_per_process(monkeypatch):
    splits = Counter()

    class Table(str):
        def splitlines(self, *args, **kwargs):
            splits[self.name] += 1
            return super().splitlines(*args, **kwargs)

    for name in ("SHAPES", "GRAPHS"):
        table = Table(getattr(_tables, name))
        table.name = name
        monkeypatch.setattr(_tables, name, table)
    caches = (oracle._table_rows, oracle._corpus, tree_shapes)
    for cache in caches:
        cache.cache_clear()
    assert sum(len(tree_shapes(m)) for m in range(CLIQUE_BOUND + 1)) == 201
    assert sum(len(small_graph_corpus(n)) for n in range(8)) == 1252
    assert splits == {"SHAPES": 1, "GRAPHS": 1}
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()

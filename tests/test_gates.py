"""Gate construction, catalog and detection, with the bitmask-filtered
gate search checked against the unfiltered reference."""

import gc
import itertools
import random
import time
from collections import Counter

import pytest

from eptkit import gates
from eptkit.gates import (
    ExtensionStep,
    GateRecipe,
    build_gate,
    check_two_clique_property,
    contains_gate_ge,
    enumerate_gates,
    is_gate,
    rewire_gate,
)
from eptkit.graphs import (
    PARSE_VERTEX_BOUND,
    BoundExceededError,
    Graph,
    canonical_form,
    complete_graph,
    cycle_graph,
    enumerate_maximal_cliques,
    induced_subgraph,
    is_connected,
    isomorphism,
    path_graph,
)
from eptkit.oracle import small_graph_corpus
from reference import reference_contains_gate_ge, reference_two_clique_property

C4_PENDANT = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


def test_recipe_counts():
    r = GateRecipe(4, (ExtensionStep(0, 3, 2),))
    assert r.clique_count() == 5
    assert r.vertex_count() == 6
    assert GateRecipe(7).clique_count() == 7
    # k = base + sum(l-1) and n = k + number of steps
    r2 = GateRecipe(5, (ExtensionStep(0, 2, 3), ExtensionStep(1, 4, 2)))
    assert r2.clique_count() == 5 + 2 + 1
    assert r2.vertex_count() == r2.clique_count() + 2


def test_build_base_cycle():
    gate = build_gate(GateRecipe(5))
    assert gate.graph == cycle_graph(5)
    assert gate.cliques == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    with pytest.raises(ValueError, match="at least 4"):
        build_gate(GateRecipe(3))


def test_build_worked_example():
    # base C4 with cliques (0,1),(0,3),(1,2),(2,3); extend cliques 0 and 3
    gate = build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),)))
    assert gate.graph.n == 6
    assert gate.cliques == ((0, 1, 4), (0, 3), (1, 2), (2, 3, 5), (4, 5))
    assert gate.recipe.clique_count() == 5
    assert gate.graph.has_edge(4, 5)
    assert gate.graph.has_edge(0, 4) and gate.graph.has_edge(1, 4)
    assert gate.graph.has_edge(2, 5) and gate.graph.has_edge(3, 5)


def test_extension_validation():
    with pytest.raises(ValueError, match="out of range"):
        build_gate(GateRecipe(4, (ExtensionStep(0, 9, 2),)))
    with pytest.raises(ValueError, match="distinct"):
        build_gate(GateRecipe(4, (ExtensionStep(1, 1, 2),)))
    with pytest.raises(ValueError, match="path length"):
        build_gate(GateRecipe(4, (ExtensionStep(0, 3, 1),)))
    with pytest.raises(ValueError, match="not disjoint"):
        build_gate(GateRecipe(4, (ExtensionStep(0, 1, 2),)))


def test_build_gate_checks_vertex_count_first():
    # refused by arithmetic on the recipe, before the cycle is built
    with pytest.raises(BoundExceededError, match="limited to"):
        build_gate(GateRecipe(PARSE_VERTEX_BOUND + 1))
    # a negative path length cannot pull the count under the bound
    with pytest.raises(ValueError, match="path length"):
        build_gate(GateRecipe(PARSE_VERTEX_BOUND + 1, (ExtensionStep(0, 2, -5),)))


def test_long_recipe_builds_the_graph_once():
    # each step extends the first disjoint clique pair by a 2-path; a
    # Graph per step made this 3.7 s at 200 steps, quadratic in the steps
    steps = []
    gate = build_gate(GateRecipe(4))
    cliques = gate.cliques
    for i in range(200):
        a, b = next(
            (a, b)
            for a, b in itertools.combinations(range(len(cliques)), 2)
            if not set(cliques[a]) & set(cliques[b])
        )
        steps.append(ExtensionStep(a, b, 2))
        cliques = gates._step(4 + 2 * i, cliques, steps[-1])[1]
    recipe = GateRecipe(4, tuple(steps))
    gc.collect()
    start = time.perf_counter()
    gate = build_gate(recipe)
    assert time.perf_counter() - start < 0.5
    assert gate.graph.n == 404 and gate.cliques == cliques
    assert len(gate.cliques) == recipe.clique_count() == 204


def test_two_clique_property():
    for recipe in enumerate_gates(8).values():
        gate = build_gate(recipe)
        ok, violator = check_two_clique_property(gate.graph)
        assert ok and violator is None
    assert check_two_clique_property(complete_graph(4)) == (False, 0)
    ok, violator = check_two_clique_property(C4_PENDANT)
    assert not ok and violator == 0
    assert check_two_clique_property(path_graph(3))[0] is False


def test_catalog_small():
    catalog = enumerate_gates(6)
    gates = [build_gate(r) for r in catalog.values()]
    forms = {canonical_form(g.graph) for g in gates}
    assert len(forms) == len(gates) == 4
    expect = {
        canonical_form(cycle_graph(4)),
        canonical_form(cycle_graph(5)),
        canonical_form(cycle_graph(6)),
        canonical_form(build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),))).graph),
    }
    assert forms == expect


def test_catalog_counts_by_size():
    catalog = enumerate_gates(8)
    by_n = Counter(r.vertex_count() for r in catalog.values())
    by_k = Counter(r.clique_count() for r in catalog.values())
    assert by_n == {4: 1, 5: 1, 6: 2, 7: 2, 8: 5}
    assert {k: by_k[k] for k in (4, 5, 6)} == {4: 1, 5: 2, 6: 4}


def test_catalog_is_consistent():
    catalog = enumerate_gates(10)
    for form, recipe in catalog.items():
        gate = build_gate(recipe)
        assert canonical_form(gate.graph) == form
        assert gate.graph.n <= 10
        assert len(gate.cliques) == recipe.clique_count()
        assert gate.graph.n == recipe.vertex_count()
    with pytest.raises(BoundExceededError):
        enumerate_gates(13)


def test_catalog_refuses_negative_vertex_count():
    assert enumerate_gates(0) == {}
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        enumerate_gates(-1)


def test_is_gate():
    assert is_gate(cycle_graph(7)) == GateRecipe(7)
    gate = build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),)))
    found = is_gate(gate.graph)
    assert found is not None and found.clique_count() == 5
    assert is_gate(complete_graph(4)) is None
    assert is_gate(path_graph(5)) is None
    assert is_gate(C4_PENDANT) is None
    assert is_gate(Graph(8, cycle_graph(4).edges | cycle_graph(4).edges)) is None
    with pytest.raises(BoundExceededError):
        is_gate(Graph(13))


def test_is_gate_on_relabeled_copy():
    gate = build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),)))
    perm = [3, 5, 0, 2, 4, 1]
    relabeled = Graph(6, [(perm[u], perm[v]) for u, v in gate.graph.edges])
    assert is_gate(relabeled) == gate.recipe


def test_rewire_cycle():
    c4 = build_gate(GateRecipe(4))
    assert isomorphism(rewire_gate(c4, 0, 2).graph, cycle_graph(5)) is not None
    assert isomorphism(rewire_gate(c4, 2, 3).graph, cycle_graph(6)) is not None


def test_rewire_preserves_gate():
    for recipe in enumerate_gates(8).values():
        gate = build_gate(recipe)
        for t in (2, 3):
            rewired = rewire_gate(gate, 0, t)
            assert rewired.graph.n == gate.graph.n - 1 + t
            assert is_gate(rewired.graph) is not None
            assert rewired.cliques == tuple(enumerate_maximal_cliques(rewired.graph))
            ok, _ = check_two_clique_property(rewired.graph)
            assert ok


def test_rewire_beyond_catalog_bound():
    # the result has 13 vertices, one more than the catalog holds
    recipe = next(r for r in enumerate_gates(12).values() if r.vertex_count() == 12)
    with pytest.raises(BoundExceededError, match="12 vertices"):
        rewire_gate(build_gate(recipe), 0, 2)


def test_rewire_refuses_before_building():
    # a billion-vertex path would take minutes and gigabytes to build
    c4 = build_gate(GateRecipe(4))
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="12 vertices"):
        rewire_gate(c4, 0, 10**9)
    assert time.perf_counter() - start < 0.1


def test_rewire_validation():
    c4 = build_gate(GateRecipe(4))
    with pytest.raises(ValueError, match="out of range"):
        rewire_gate(c4, 9, 2)
    with pytest.raises(ValueError, match="at least 2"):
        rewire_gate(c4, 0, 1)


def test_contains_gate_ge():
    hit = contains_gate_ge(cycle_graph(6), 3)
    assert hit is not None
    mapping, recipe = hit
    assert mapping == (0, 1, 2, 3, 4, 5)
    assert recipe == GateRecipe(6)
    assert contains_gate_ge(cycle_graph(6), 6) is None
    assert contains_gate_ge(complete_graph(5), 3) is None
    assert contains_gate_ge(path_graph(6), 3) is None
    # C4 hiding inside a padded graph
    padded = Graph(6, [(0, 2), (2, 4), (4, 5), (5, 0), (1, 0), (1, 2), (3, 4)])
    hit = contains_gate_ge(padded, 3)
    assert hit is not None
    mapping, recipe = hit
    assert recipe == GateRecipe(4)
    assert set(mapping) == {0, 2, 4, 5}
    with pytest.raises(BoundExceededError):
        contains_gate_ge(Graph(13), 3)


def test_contains_gate_threshold():
    # the 5-gate on 6 vertices contains itself (k=5 > 4) and a C4 (k=4 > 3)
    gate = build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),)))
    hit = contains_gate_ge(gate.graph, 4)
    assert hit is not None and hit[1].clique_count() == 5
    hit = contains_gate_ge(gate.graph, 3)
    assert hit is not None and hit[1].clique_count() == 4
    assert contains_gate_ge(gate.graph, 5) is None


def relabeled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def relabeled_catalog():
    rng = random.Random(20261018)
    for recipe in enumerate_gates().values():
        g = build_gate(recipe).graph
        yield recipe, relabeled(rng, g.n, g.edges)


def connected_corpus():
    return [g for n in range(4, 8) for g in small_graph_corpus(n, connected_only=True)]


def test_contains_gate_ge_matches_reference_on_catalog():
    for recipe, g in relabeled_catalog():
        k = recipe.clique_count()
        for h in (k - 1, k):
            assert contains_gate_ge(g, h) == reference_contains_gate_ge(g, h), (recipe, h)


def test_contains_gate_ge_matches_reference_on_corpus():
    for g in connected_corpus():
        for h in range(2, 7):
            assert contains_gate_ge(g, h) == reference_contains_gate_ge(g, h), (g.edges, h)


def test_two_clique_property_matches_reference():
    for g in connected_corpus():
        assert check_two_clique_property(g) == reference_two_clique_property(g), g.edges


def test_gate_search_canonicalizes_only_two_clique_subsets(monkeypatch):
    real = gates.canonical_form

    def guarded(g):
        assert reference_two_clique_property(g)[0], f"canonical form of a non-gate {g.edges}"
        return real(g)

    monkeypatch.setattr(gates, "canonical_form", guarded)
    recipe, g = [(r, g) for r, g in relabeled_catalog() if g.n == 12][-1]
    k = recipe.clique_count()
    witness = contains_gate_ge(g, k - 1)
    assert witness is not None and witness[1].clique_count() == k
    assert contains_gate_ge(g, k) is None
    assert is_gate(complete_graph(4)) is None


def test_contains_gate_ge_early_exits_match_reference():
    # h below 4 cliques, at k - 1 (every 2-vertex clique fixed) and at k
    for h in range(-3, 4):
        hit = contains_gate_ge(cycle_graph(5), h)
        assert hit == reference_contains_gate_ge(cycle_graph(5), h)
        assert hit == ((0, 1, 2, 3, 4), GateRecipe(5)), h
    for g in (Graph(0), Graph(3), complete_graph(4)):
        for h in (-1, 0, 3):
            assert contains_gate_ge(g, h) is None
            assert reference_contains_gate_ge(g, h) is None
    # 6 vertices in 5 two-vertex cliques at h = 4: none is left to combine
    star = Graph(6, [(0, v) for v in range(1, 6)])
    for g in (path_graph(6), star):
        assert contains_gate_ge(g, 4) is None
        assert reference_contains_gate_ge(g, 4) is None


def test_contains_gate_ge_matches_reference_on_8_to_12_vertices():
    rng = random.Random(20261019)
    cases = []
    for _ in range(40):
        n = rng.randint(8, 12)
        p = rng.choice((0.25, 0.35, 0.5))
        cases.append(Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    recipes = list(enumerate_gates().values())
    # a pendant vertex adds a 2-vertex clique, so the k - 1 query fixes it
    for recipe in rng.sample([r for r in recipes if 7 <= r.vertex_count() <= 11], 16):
        g = build_gate(recipe).graph
        cases.append(relabeled(rng, g.n + 1, [*g.edges, (rng.randrange(g.n), g.n)]))
    for recipe in rng.sample([r for r in recipes if 8 <= r.vertex_count() <= 12], 16):
        g = build_gate(recipe).graph
        chords = [e for e in itertools.combinations(range(g.n), 2) if e not in g.edges]
        cases.append(relabeled(rng, g.n, [*g.edges, rng.choice(chords)]))
    hits = 0
    for g in cases:
        k = len(enumerate_maximal_cliques(g))
        for h in (k - 2, k - 1, k):
            hit = contains_gate_ge(g, h)
            assert hit == reference_contains_gate_ge(g, h), (g.n, sorted(g.edges), h)
            hits += hit is not None
    assert hits >= 16


def test_subset_cliques_come_from_distinct_cliques_of_g():
    # the lemma that bounds contains_gate_ge: each maximal clique of G[S]
    # is C & S for a maximal clique C of g, a different C for each
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        whole = [set(c) for c in enumerate_maximal_cliques(g)]
        s = set(rng.sample(range(n), rng.randint(1, n)))
        sub, mapping = induced_subgraph(g, s)
        used = []
        for q in enumerate_maximal_cliques(sub):
            q = {mapping[i] for i in q}
            sources = [i for i, c in enumerate(whole) if c & s == q]
            assert sources, (n, sorted(g.edges), s, q)
            used.append(sources[0])
        assert len(set(used)) == len(used)
        if reference_two_clique_property(sub)[0]:
            assert len(used) <= sum(len(c & s) >= 2 for c in whole)


def test_clique_count_matches_enumeration():
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randint(0, 12)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        k = len(enumerate_maximal_cliques(g))
        adj = [sum(1 << w for w in g.neighbors(v)) for v in range(n)]
        for limit in range(k + 2):
            assert gates._clique_count(adj, limit) == min(k, limit), (sorted(g.edges), limit)


def test_gate_search_work_is_bounded_by_the_clique_count(monkeypatch):
    calls = Counter()
    real_split, real_form = gates._two_clique_split, gates.canonical_form

    def split(adj, mask):
        calls["split"] += 1
        return real_split(adj, mask)

    def form(g):
        calls["form"] += 1
        return real_form(g)

    monkeypatch.setattr(gates, "_two_clique_split", split)
    monkeypatch.setattr(gates, "canonical_form", form)
    queries = 0
    for recipe, g in relabeled_catalog():
        k = recipe.clique_count()
        assert contains_gate_ge(g, k) is None
        assert calls == Counter(), recipe
        assert contains_gate_ge(g, k - 1)[1].clique_count() == k
        queries += calls["split"]
        calls.clear()
    # combining every vertex, both queries together take 37 276
    assert queries <= 2000


def test_counts_must_be_integers():
    # unchecked, 2.5 would give {} and leak islice's ValueError
    with pytest.raises(TypeError):
        enumerate_gates(2.5)
    with pytest.raises(TypeError):
        contains_gate_ge(cycle_graph(5), 2.5)
    with pytest.raises(TypeError):
        small_graph_corpus(2.5)
    assert enumerate_gates(True) == enumerate_gates(1)
    assert contains_gate_ge(cycle_graph(5), True) == contains_gate_ge(cycle_graph(5), 1)


def clique_graph_biconnected(g: Graph) -> bool:
    return gates._biconnected(gates._clique_links(g._adj, (1 << g.n) - 1))


def unfiltered_is_gate(g: Graph):
    """is_gate without the clique-graph test: a connectivity search,
    the two-clique test, then the catalog lookup."""
    if g.n < 4 or not is_connected(g) or not check_two_clique_property(g)[0]:
        return None
    return gates._catalog().get(canonical_form(g))


def test_every_catalog_gate_has_a_2_connected_clique_graph():
    for recipe, relabeled_gate in relabeled_catalog():
        for g in (build_gate(recipe).graph, relabeled_gate):
            assert clique_graph_biconnected(g), recipe
            assert is_gate(g) == recipe


def test_clique_graph_test_changes_no_lookup():
    # every graph on up to 7 vertices, then gates less one to three
    # vertices, some of them connected two-clique graphs whose H has a
    # cut node: the graphs the clique-graph test turns away
    graphs = [g for n in range(8) for g in small_graph_corpus(n)]
    rng = random.Random(20261021)
    recipes = list(enumerate_gates().values())
    for _ in range(2000):
        gate = build_gate(rng.choice(recipes)).graph
        keep = rng.sample(range(gate.n), gate.n - rng.randint(1, 3))
        graphs.append(induced_subgraph(gate, keep)[0])
    turned_away = 0
    for g in graphs:
        assert is_gate(g) == unfiltered_is_gate(g), (g.n, sorted(g.edges))
        if g.n >= 4 and is_connected(g) and check_two_clique_property(g)[0]:
            turned_away += not clique_graph_biconnected(g)
    assert turned_away >= 10


def test_gate_search_canonicalizes_once_per_gate(monkeypatch):
    # a connected two-clique subset whose H has a cut node is no gate,
    # so the only canonical form the k - 1 query takes is its hit's
    calls = Counter()
    real = gates.canonical_form

    def form(g):
        calls[g.n] += 1
        return real(g)

    monkeypatch.setattr(gates, "canonical_form", form)
    for recipe, g in relabeled_catalog():
        assert contains_gate_ge(g, recipe.clique_count() - 1) is not None
        assert sum(calls.values()) == 1, (recipe, calls)
        calls.clear()


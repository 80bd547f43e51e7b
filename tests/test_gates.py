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


def relabeled_catalog():
    rng = random.Random(20261018)
    for recipe in enumerate_gates().values():
        g = build_gate(recipe).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield recipe, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


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

"""Host-tree path representations: verification, cliques, pies, stars."""

import gc
import itertools
import random
import time

import pytest

from eptkit.gates import (
    ExtensionStep,
    GateRecipe,
    LabeledGate,
    build_gate,
    contains_gate_ge,
    enumerate_gates,
)
from eptkit.graphs import (
    BoundExceededError,
    Graph,
    GraphParseError,
    cycle_graph,
    enumerate_maximal_cliques,
    parse_graph,
    path_graph,
)
from eptkit.representation import (
    ClawClique,
    EdgeClique,
    EptRepresentation,
    HostTree,
    MultipieWitness,
    PieWitness,
    classify_clique,
    clique_of_claw,
    clique_of_edge,
    clique_star,
    clique_witnesses,
    edge_intersection_graph,
    find_claw_violation,
    find_multipie,
    find_pie,
    is_helly,
    max_host_degree,
    parse_representation,
    representation_to_dot,
    representation_to_text,
    star_representation,
    verify,
)
from reference import (
    check_multipie_conditions,
    reference_claw_violation,
    reference_clique_witnesses,
    reference_derived_graph,
    reference_edge_cliques,
    reference_verify,
)

# branching tree on six triangle-ish paths: three triangles hang off a
# central claw clique, and the claw clique is not an edge clique
S3_GRAPH = Graph(6, [
    (2, 3), (3, 5), (2, 5), (0, 2), (0, 3), (1, 3), (1, 5), (2, 4), (4, 5),
])
S3_REP = EptRepresentation(
    HostTree(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]),
    ((0, 2, 5), (0, 3, 6), (1, 0, 2), (2, 0, 3), (0, 1, 4), (3, 0, 1)),
)


def c5_pie() -> EptRepresentation:
    return star_representation(build_gate(GateRecipe(5)))


def test_host_tree_validation():
    t = HostTree(4, [(0, 1), (1, 2), (1, 3)])
    assert t.edges == ((0, 1), (1, 2), (1, 3))
    assert t.degree(1) == 3 and t.max_degree() == 3
    assert t.neighbors(1) == {0, 2, 3}
    assert t.has_edge(2, 1)
    assert HostTree(1, []).max_degree() == 0
    with pytest.raises(ValueError, match="connected and acyclic"):
        HostTree(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="connected and acyclic"):
        HostTree(4, [(0, 1), (2, 3)])


def test_host_tree_equality():
    assert HostTree(3, [(1, 0), (1, 2)]) == HostTree(3, [(0, 1), (1, 2)])
    assert hash(HostTree(2, [(0, 1)])) == hash(HostTree(2, [(1, 0)]))


def test_host_tree_is_frozen():
    # certificates on one tree shape share its HostTree (test_oracle.py)
    t = HostTree(3, [(0, 1), (1, 2)])
    for field in ("n", "edges", "_adj", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, field, 7)
        with pytest.raises(AttributeError):
            delattr(t, field)
    assert t == HostTree(3, [(0, 1), (1, 2)]) and t.n == 3 and t.degree(1) == 2


def test_representation_validation():
    t = HostTree(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="empty"):
        EptRepresentation(t, ((),))
    with pytest.raises(ValueError, match="repeats"):
        EptRepresentation(t, ((0, 1, 0),))
    with pytest.raises(ValueError, match="leaves the tree"):
        EptRepresentation(t, ((0, 1, 5),))
    with pytest.raises(ValueError, match="non-edge"):
        EptRepresentation(t, ((0, 2),))
    # single-vertex paths carry no edges
    rep = EptRepresentation(t, ((1,), (0, 1)))
    assert rep.path_edge_sets == (frozenset(), frozenset({(0, 1)}))


def test_edge_intersection_graph():
    rep = c5_pie()
    assert edge_intersection_graph(rep) == cycle_graph(5)
    t = HostTree(2, [(0, 1)])
    rep = EptRepresentation(t, ((0, 1), (1, 0), (0,)))
    assert edge_intersection_graph(rep) == Graph(3, [(0, 1)])


def test_verify():
    rep = c5_pie()
    assert verify(rep, cycle_graph(5)) == (True, None)
    ok, why = verify(rep, path_graph(5))
    assert not ok and why == "vertices 0 and 4: non-adjacent but paths share tree edge (0, 2)"
    missing = Graph(5, set(cycle_graph(5).edges) | {(0, 2)})
    ok, why = verify(rep, missing)
    assert not ok and why == "vertices 0 and 2: adjacent but paths share no tree edge"
    with pytest.raises(ValueError, match="5 paths"):
        verify(rep, Graph(3))


def test_max_host_degree():
    assert max_host_degree(c5_pie()) == 5
    assert max_host_degree(S3_REP) == 3


def test_clique_of_edge():
    rep = c5_pie()
    assert clique_of_edge(rep, (0, 1)) == (0, 1)
    assert clique_of_edge(rep, (1, 0)) == (0, 1)
    assert clique_of_edge(rep, (0, 2)) == (0, 4)
    with pytest.raises(ValueError, match="not in host tree"):
        clique_of_edge(rep, (1, 2))
    # every maximal clique of the pie is some K_e
    cliques = set(enumerate_maximal_cliques(cycle_graph(5)))
    assert {clique_of_edge(rep, e) for e in rep.tree.edges} == cliques


def test_clique_of_claw():
    spokes = [(0, 1), (0, 2), (0, 3)]
    assert clique_of_claw(S3_REP, 0, spokes) == (2, 3, 5)
    with pytest.raises(ValueError, match="exactly 3"):
        clique_of_claw(S3_REP, 0, spokes[:2])
    with pytest.raises(ValueError, match="does not touch"):
        clique_of_claw(S3_REP, 0, [(0, 1), (0, 2), (1, 4)])
    with pytest.raises(ValueError, match="not in host tree"):
        clique_of_claw(S3_REP, 0, [(0, 1), (0, 2), (0, 6)])
    with pytest.raises(ValueError, match="distinct"):
        clique_of_claw(S3_REP, 0, [(0, 1), (1, 0), (0, 2)])


def test_find_claw_violation():
    hit = find_claw_violation(S3_REP)
    assert hit is not None
    claw, covering = hit
    assert claw == ClawClique(0, (1, 2, 3))
    assert set(covering) == {2, 3, 5}
    # the three covering paths pairwise intersect but share no common edge
    sets = [S3_REP.path_edge_sets[v] for v in covering]
    for a, b in itertools.combinations(sets, 2):
        assert a & b
    assert not (sets[0] & sets[1] & sets[2])
    assert find_claw_violation(c5_pie()) is None
    assert find_claw_violation(S3_REP, subset=(0, 1, 4)) is None
    # subset vertices are checked, not read as list indices: -1 would
    # stand for vertex 5, whose path completes the claw with 2 and 3
    for bad in (-1, 6):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for 6 paths"):
            find_claw_violation(S3_REP, subset=(2, 3, bad))


def test_classify_clique():
    rep = c5_pie()
    for c in enumerate_maximal_cliques(cycle_graph(5)):
        witness = classify_clique(rep, c)
        assert isinstance(witness, EdgeClique)
        assert clique_of_edge(rep, witness.edge) == c
    assert classify_clique(S3_REP, (2, 3, 5)) == ClawClique(0, (1, 2, 3))
    for c in ((0, 2, 3), (1, 3, 5), (2, 4, 5)):
        assert isinstance(classify_clique(S3_REP, c), EdgeClique)
    with pytest.raises(ValueError, match="not a maximal clique"):
        classify_clique(S3_REP, (2, 3))


def test_is_helly():
    assert is_helly(c5_pie()) == (True, None)
    ok, clique = is_helly(S3_REP)
    assert not ok and clique == (2, 3, 5)
    # is_helly false implies an extractable claw violation
    assert find_claw_violation(S3_REP) is not None


# two isolated vertices, each on a single-vertex path of a one-edge tree
POINTS_REP = EptRepresentation(HostTree(2, [(0, 1)]), ((0,), (1,)))


def test_single_vertex_paths():
    assert verify(POINTS_REP, Graph(2)) == (True, None)
    assert clique_witnesses(POINTS_REP) == [((0,), None), ((1,), None)]
    assert is_helly(POINTS_REP) == (False, (0,))
    with pytest.raises(ValueError, match="single-vertex path"):
        classify_clique(POINTS_REP, (1,))
    # only the isolated vertex's clique lacks a witness
    rep = EptRepresentation(HostTree(3, [(0, 1), (1, 2)]), ((0, 1), (2,), (0, 1, 2)))
    assert clique_witnesses(rep) == [((0, 2), EdgeClique((0, 1))), ((1,), None)]
    assert is_helly(rep) == (False, (1,))


def random_representation(rng: random.Random) -> EptRepresentation:
    """A random tree on 2-14 vertices, each joined to an earlier one in a
    shuffled order, with 1-16 paths between random ends; equal ends give
    a single-vertex path."""
    n = rng.randint(2, 14)
    order = rng.sample(range(n), n)
    tree = HostTree(n, [(order[rng.randrange(i)], order[i]) for i in range(1, n)])
    paths = []
    for _ in range(rng.randint(1, 16)):
        a, b = rng.randrange(n), rng.randrange(n)
        parent = {a: a}
        queue = [a]
        for q in queue:
            for r in tree.neighbors(q) - parent.keys():
                parent[r] = q
                queue.append(r)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        paths.append(tuple(path))
    return EptRepresentation(tree, tuple(paths))


def test_clique_witnesses_match_reference():
    # the tree-read cliques and witnesses against Bron-Kerbosch on the
    # derived graph and every claw at every node
    rng = random.Random(20261018)
    reps = [random_representation(rng) for _ in range(1000)]
    reps += [star_representation(build_gate(r)) for r in enumerate_gates(12).values()]
    reps += [S3_REP, POINTS_REP]
    with_claws = with_points = 0
    for rep in reps:
        expected = reference_clique_witnesses(rep)
        assert clique_witnesses(rep) == expected, rep
        bad = next((c for c, w in expected if not isinstance(w, EdgeClique)), None)
        assert is_helly(rep) == (bad is None, bad)
        for c, w in expected:
            if w is None:
                with pytest.raises(ValueError, match="single-vertex path"):
                    classify_clique(rep, c)
            else:
                assert classify_clique(rep, c) == w
        hit = find_claw_violation(rep)
        assert hit == reference_claw_violation(rep), rep
        # every covered claw's K_Y is a maximal clique, so the first
        # violation is the first claw witness
        claws = [w for _, w in expected if isinstance(w, ClawClique)]
        first = min(claws, key=lambda w: (w.center, w.ends), default=None)
        assert (hit and hit[0]) == first
        subset = tuple(v for v in range(len(rep.paths)) if rng.random() < 0.7)
        assert find_claw_violation(rep, subset) == reference_claw_violation(rep, subset)
        with_claws += bool(claws)
        with_points += None in (w for _, w in expected)
    assert with_claws >= 100 and with_points >= 100


def test_wide_star_claws_match_reference():
    # stars with up to 9 spokes, most paths through the centre, so many
    # claws share ends; the covered-pair triangles against every triple
    rng = random.Random(20261018)
    claws = 0
    for _ in range(400):
        k = rng.randint(3, 9)
        paths = []
        for _ in range(rng.randint(3, 14)):
            a, b = rng.sample(range(1, k + 1), 2)
            paths.append((a, 0, b) if rng.random() < 0.8 else (0, a))
        rep = EptRepresentation(HostTree(k + 1, [(0, i) for i in range(1, k + 1)]), tuple(paths))
        expected = reference_clique_witnesses(rep)
        assert clique_witnesses(rep) == expected, rep
        assert find_claw_violation(rep) == reference_claw_violation(rep), rep
        claws += sum(isinstance(w, ClawClique) for _, w in expected)
    assert claws >= 300


def test_edge_index_readers_match_pairwise_reference():
    # verify, the derived graph, K_e and the DOT labels, read off the
    # index of the paths that use each tree edge, against every pair of
    # paths and every path per edge. Each representation is checked
    # against its derived graph, that graph with one seeded pair
    # toggled, and its complement, where every pair is a discrepancy
    rng = random.Random(20261018)
    reps = [random_representation(rng) for _ in range(1000)]
    reps += [star_representation(build_gate(r)) for r in enumerate_gates(12).values()]
    kinds = set()
    for rep in reps:
        derived = reference_derived_graph(rep)
        assert edge_intersection_graph(rep) == derived, rep
        n = derived.n
        pairs = set(itertools.combinations(range(n), 2))
        targets = [derived, Graph(n, pairs - derived.edges)]
        if n >= 2:
            targets.append(Graph(n, derived.edges ^ {tuple(sorted(rng.sample(range(n), 2)))}))
        for g in targets:
            got = verify(rep, g)
            assert got == reference_verify(rep, g), rep
            kinds.add(got[1] and got[1].split(": ")[1].split()[0])
        k_e = reference_edge_cliques(rep)
        assert {e: clique_of_edge(rep, e) for e in rep.tree.edges} == k_e
        edge_lines = [
            f"  t{a} -- t{b}" + (f' [label="{",".join(map(str, held))}"]' if held else "") + ";"
            for (a, b), held in k_e.items()
        ]
        assert [x for x in representation_to_dot(rep).splitlines() if " -- " in x] == edge_lines
    assert kinds == {None, "adjacent", "non-adjacent"}


def test_edge_index_readers_on_a_wide_star():
    # C_2000's star certificate: no reader intersects every pair of
    # paths or scans every path per tree edge
    g = cycle_graph(2000)
    cliques = enumerate_maximal_cliques(g)
    checks = {
        "verify": lambda rep: verify(rep, g) == (True, None),
        "edge_intersection_graph": lambda rep: edge_intersection_graph(rep) == g,
        "representation_to_dot": lambda rep: representation_to_dot(rep).count(" -- ") == 2000,
        "find_pie": lambda rep: find_pie(rep, tuple(range(2000))).center == 0,
    }
    for name, check in checks.items():
        rep = clique_star(g.n, cliques)  # each reader builds the index afresh
        # time the reader alone: a full collection over what earlier tests
        # keep alive (the canonical-form cache) takes about 0.2 s by itself
        gc.collect()
        start = time.perf_counter()
        assert check(rep), name
        assert time.perf_counter() - start < 0.25, name


def test_clique_star():
    # a C6 with a pendant triangle on edge 0 1: vertex 6 lies in one clique
    g = Graph(7, list(cycle_graph(6).edges) + [(0, 6), (1, 6)])
    cliques = enumerate_maximal_cliques(g)
    rep = clique_star(g.n, cliques)
    assert rep.paths[6] == (0, cliques.index((0, 1, 6)) + 1)
    assert verify(rep, g) == (True, None)
    assert is_helly(rep) == (True, None)
    with pytest.raises(ValueError, match="vertex 0 lies in 3 maximal cliques, not 1 or 2"):
        clique_star(4, [(0, 1), (0, 2), (0, 3)])
    # clique vertices are checked, not read as list indices: -5 would
    # stand for vertex 0 and 5 would overrun
    with pytest.raises(ValueError, match=r"clique \(4, -5\) holds vertex -5, out of range for n=5"):
        clique_star(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, -5)])
    with pytest.raises(ValueError, match=r"clique \(0, 5\) holds vertex 5, out of range for n=3"):
        clique_star(3, [(0, 5)])
    # a wide star: the claw scan lists covered-pair triangles, not every
    # triple of the 1000 spokes
    c1000 = cycle_graph(1000)
    rep = clique_star(c1000.n, enumerate_maximal_cliques(c1000))
    gc.collect()
    start = time.perf_counter()
    assert is_helly(rep) == (True, None)
    assert time.perf_counter() - start < 1.0


def test_find_pie():
    rep = c5_pie()
    witness = find_pie(rep, (0, 1, 2, 3, 4))
    assert witness == PieWitness(0, (2, 1, 3, 4, 5), (0, 1, 2, 3, 4))
    k = 5
    for i in range(k):
        ends = witness.spoke_ends
        path_edges = rep.path_edge_sets[witness.cycle[i]]
        for q in (ends[i], ends[(i + 1) % k]):
            key = (witness.center, q) if witness.center < q else (q, witness.center)
            assert key in path_edges
    # rotation of the cycle argument rotates the witness
    rotated = find_pie(rep, (2, 3, 4, 0, 1))
    assert rotated.cycle == (2, 3, 4, 0, 1)
    assert set(rotated.spoke_ends) == {1, 2, 3, 4, 5}


def test_find_pie_rejects_bad_cycles():
    rep = c5_pie()
    with pytest.raises(ValueError, match="at least 4"):
        find_pie(rep, (0, 1, 2))
    with pytest.raises(ValueError, match="not a chordless cycle"):
        find_pie(rep, (0, 2, 1, 3, 4))


def test_pie_of_every_base_cycle():
    for n in range(4, 9):
        rep = star_representation(build_gate(GateRecipe(n)))
        witness = find_pie(rep, tuple(range(n)))
        assert witness.center == 0
        assert len(set(witness.spoke_ends)) == n


def test_find_multipie():
    gate = build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),)))
    rep = star_representation(gate)
    witness = find_multipie(rep, tuple(range(6)), 5)
    assert isinstance(witness, MultipieWitness)
    check_multipie_conditions(rep, witness, 5)


def with_lower_turn(star: EptRepresentation) -> EptRepresentation:
    """star, a star on centre 0 with spokes 1..k, with its centre
    renamed k + 1 and a new leaf 0 hung from a, the first spoke end of
    vertex 0's path, which now starts at that leaf. So vertex 0's path
    turns at a, below the centre, where no other path turns, and the
    derived graph stays the same: no other path uses the new edge."""
    k = star.tree.n - 1
    a = star.paths[0][0]
    tree = HostTree(k + 2, [(0, a), *((q, k + 1) for q in range(1, k + 1))])
    paths = [tuple(q or k + 1 for q in path) for path in star.paths]
    paths[0] = (0, *paths[0])
    return EptRepresentation(tree, tuple(paths))


def test_pie_and_multipie_pass_over_a_centre_where_others_do_not_turn():
    # every other test's pie or multipie is a star whose first member
    # turns only at the centre; here the first centre tried is a, where
    # the other members' paths end, and the witness is the star's with
    # the centre renamed
    for recipe in (GateRecipe(5), GateRecipe(4, (ExtensionStep(0, 3, 2),))):
        gate = build_gate(recipe)
        k = recipe.clique_count()
        star = star_representation(gate)
        rep = with_lower_turn(star)
        assert verify(rep, gate.graph) == (True, None)
        assert sorted(rep._turns[0]) == [star.paths[0][0], k + 1]
        members = tuple(range(gate.graph.n))
        witness = find_multipie(rep, members, k)
        assert witness == find_multipie(star, members, k)._replace(center=k + 1)
        check_multipie_conditions(rep, witness, k)
        if not recipe.steps:
            assert find_pie(rep, members) == find_pie(star, members)._replace(center=k + 1)


def test_find_multipie_rejects_non_gates():
    rep = c5_pie()
    with pytest.raises(ValueError, match="do not induce"):
        find_multipie(rep, (0, 1, 2, 3), 4)
    with pytest.raises(ValueError, match="do not induce"):
        find_multipie(rep, (0, 1, 2, 3, 4), 4)
    # the induced subgraph drops the repeat, so it would pass as a gate
    with pytest.raises(ValueError, match="vertex 0 appears twice"):
        find_multipie(rep, (0, 0, 1, 2, 3, 4), 5)


def test_every_pie_is_a_multipie():
    rep = c5_pie()
    witness = find_multipie(rep, (0, 1, 2, 3, 4), 5)
    check_multipie_conditions(rep, witness, 5)
    pie = find_pie(rep, (0, 1, 2, 3, 4))
    assert set(witness.spoke_ends) == set(pie.spoke_ends)


def test_star_representation_over_catalog():
    for recipe in enumerate_gates(8).values():
        gate = build_gate(recipe)
        k = recipe.clique_count()
        rep = star_representation(gate)
        assert verify(rep, gate.graph) == (True, None)
        assert is_helly(rep) == (True, None)
        assert max_host_degree(rep) == k
        # host is a star: center 0, k leaves
        assert rep.tree.n == k + 1
        assert rep.tree.degree(0) == k
        assert all(rep.tree.degree(q) == 1 for q in range(1, k + 1))
        for c in gate.cliques:
            assert isinstance(classify_clique(rep, c), EdgeClique)
        witness = find_multipie(rep, tuple(range(gate.graph.n)), k)
        check_multipie_conditions(rep, witness, k)


def test_star_representation_of_relabeled_gate():
    gate = build_gate(GateRecipe(4, (ExtensionStep(0, 3, 2),)))
    perm = [2, 4, 0, 5, 1, 3]
    relabeled = Graph(6, [(perm[u], perm[v]) for u, v in gate.graph.edges])
    twisted = LabeledGate(
        relabeled, tuple(enumerate_maximal_cliques(relabeled)), gate.recipe
    )
    rep = star_representation(twisted)
    assert verify(rep, relabeled) == (True, None)
    assert is_helly(rep)[0]


def relabeled_gate(gate: LabeledGate, perm) -> LabeledGate:
    g = Graph(gate.graph.n, [(perm[u], perm[v]) for u, v in gate.graph.edges])
    return LabeledGate(g, tuple(enumerate_maximal_cliques(g)), gate.recipe)


def check_star(rep, gate):
    k = len(gate.cliques)
    assert verify(rep, gate.graph) == (True, None)
    assert is_helly(rep) == (True, None)
    assert max_host_degree(rep) == k
    assert rep.tree.n == k + 1 and rep.tree.degree(0) == k
    assert all(rep.tree.degree(q) == 1 for q in range(1, k + 1))


@pytest.mark.parametrize("n", [17, 30])
def test_star_representation_of_relabeled_long_cycle(n):
    # beyond the canonical-labelling bound of 16 vertices
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    gate = relabeled_gate(build_gate(GateRecipe(n)), perm)
    check_star(star_representation(gate), gate)


def test_star_representation_over_relabeled_catalog():
    rng = random.Random(7)
    catalog = enumerate_gates(12)
    assert len(catalog) == 203
    for recipe in catalog.values():
        perm = list(range(recipe.vertex_count()))
        rng.shuffle(perm)
        gate = relabeled_gate(build_gate(recipe), perm)
        k = recipe.clique_count()
        rep = star_representation(gate)
        check_star(rep, gate)
        witness = find_multipie(rep, tuple(range(gate.graph.n)), k)
        check_multipie_conditions(rep, witness, k)


def test_find_multipie_beyond_catalog_bound():
    perm = list(range(13))
    random.Random(13).shuffle(perm)
    gate = relabeled_gate(build_gate(GateRecipe(13)), perm)
    rep = star_representation(gate)
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="12 vertices"):
        find_multipie(rep, tuple(range(13)), 13)
    assert time.perf_counter() - start < 0.5


def test_star_representation_needs_two_cliques_per_vertex():
    # the path 0-1-2: vertex 0 lies in one maximal clique only
    p3 = path_graph(3)
    gate = LabeledGate(p3, tuple(enumerate_maximal_cliques(p3)), GateRecipe(4))
    with pytest.raises(ValueError, match="vertex 0 lies in 1 maximal cliques, not 2"):
        star_representation(gate)


def test_text_round_trip():
    for rep in (c5_pie(), S3_REP):
        text = representation_to_text(rep)
        back = parse_representation(text)
        assert back.tree == rep.tree
        assert back.paths == rep.paths
        assert representation_to_text(back) == text


def test_text_format_and_comments():
    t = HostTree(2, [(0, 1)])
    rep = EptRepresentation(t, ((0, 1), (1,)))
    assert representation_to_text(rep, comments=("tiny",)) == (
        "# tiny\n2 1\n0 1\n0 : 0 1\n1 : 1\n"
    )
    parsed = parse_representation("# c\n\n2 1\n0 1\n1 : 1\n0 : 0 1\n")
    assert parsed.paths == ((0, 1), (1,))


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("", "empty", 1),
        ("x y\n", "malformed header", 1),
        ("2 1\nnope\n", "malformed edge", 2),
        ("2 1\n0 1\nx : 0\n", "malformed path", 3),
        ("2 1\n0 1\n0 : 0\n0 : 1\n", "duplicate path", 4),
        ("2 1\n0 1\n1 : 0\n", "missing path for vertex 0", 3),
        ("2 1\n", "expected 1 tree edges", 1),
        ("3 2\n0 1\n0 2\n0 : 9\n", "leaves the tree", 4),
        ("3 2\n0 1\n1 0\n0 : 0\n", "duplicate edge 0 1", 3),
        ("4 3\n0 1\n1 2\n0 2\n0 : 0 1\n", "connected and acyclic", 1),
        # each tree edge and each path names its own line
        ("3 2\n0 1\n1 5\n0 : 0 1\n", "vertex 5 out of range for n=3", 3),
        ("3 2\n0 1\n1 1\n0 : 0 1\n", "self-loop at vertex 1", 3),
        ("3 2\n0 1\n1 2\n0 : 0 2\n1 : 0 1\n2 : 1 2\n", r"vertex 0 uses non-edge \(0, 2\)", 4),
        ("3 2\n0 1\n1 2\n1 : 0 1\n0 : 1 0 1\n2 : 1 2\n", "vertex 0 repeats a tree vertex", 5),
        ("400000 0\n0 : 0\n", "a tree on 400000 vertices has 399999 edges, not 0", 1),
        # str.isdigit() accepts a superscript, which int() then refuses,
        # and an Arabic-Indic digit, which int() reads as 1
        ("2² 1\n0 1\n0 : 0 1\n1 : 1\n", "malformed header", 1),
        ("2 1\n0 1²\n0 : 0 1\n1 : 1\n", "malformed edge", 2),
        ("2 1\n0 1\n0 : 0 1²\n1 : 1\n", "malformed path", 3),
        ("2 1\n0 1\n0 : 0 1\n١ : 1\n", "malformed path", 4),
        ("2 1\n0 1\n0 : 0 1\n1 : ١\n", "malformed path", 4),
    ],
)
def test_parse_errors(text, message, line):
    with pytest.raises(GraphParseError, match=message) as exc_info:
        parse_representation(text)
    assert exc_info.value.line == line


def test_parse_refuses_numbers_int_does_not_convert():
    # 5000 digits pass the digit rule, but int() refuses them where
    # Python limits the digits it converts; either way each parser
    # answers with a GraphParseError at line 1, never a bare ValueError
    for parse in (parse_graph, parse_representation):
        with pytest.raises(GraphParseError) as exc_info:
            parse(f"{'1' * 5000} 0\n")
        assert exc_info.value.line == 1


def test_representation_to_dot():
    dot = representation_to_dot(S3_REP)
    assert dot.startswith("graph host")
    assert 't0 -- t1 [label="2,4,5"];' in dot
    assert dot.count(" -- ") == 6


def cyclic_order(g: Graph, vertices) -> tuple[int, ...]:
    """The vertices of a chordless cycle of g, in order around it."""
    order = [vertices[0]]
    while len(order) < len(vertices):
        order.append(min(w for w in vertices if g.has_edge(order[-1], w) and w not in order))
    return tuple(order)


def cache_readers(g: Graph, found=()):
    """Every reader of a representation's derived graph and claw list,
    as calls on a representation of g: verify, is_helly,
    clique_witnesses and find_claw_violation, then find_multipie on each
    induced gate of `found` and on g's first induced gate, and find_pie
    on those that are chordless cycles."""
    found = [*found, contains_gate_ge(g, 3)]
    calls = [lambda rep: verify(rep, g), is_helly, clique_witnesses, find_claw_violation]
    for vertices, recipe in filter(None, found):
        calls.append(lambda rep, v=vertices, k=recipe.clique_count(): find_multipie(rep, v, k))
        if not recipe.steps:
            calls.append(lambda rep, cycle=cyclic_order(g, vertices): find_pie(rep, cycle))
    return calls


def answer(call, rep):
    try:
        return call(rep)
    except (ValueError, RuntimeError) as exc:
        return repr(exc)


def assert_caches_change_no_answer(rep: EptRepresentation, g: Graph, found=()) -> None:
    """Each reader answers the same on a fresh copy of rep, whose
    caches are cold, as on a copy whose caches are all built."""
    calls = cache_readers(g, found)
    cold = [answer(call, EptRepresentation(rep.tree, rep.paths)) for call in calls]
    warm = EptRepresentation(rep.tree, rep.paths)
    edge_intersection_graph(warm)
    clique_witnesses(warm)
    assert {"_graph", "_claws"} <= set(vars(warm))
    assert [answer(call, warm) for call in calls] == cold, rep


def test_derived_graph_is_built_once():
    rep = EptRepresentation(S3_REP.tree, S3_REP.paths)
    assert edge_intersection_graph(rep) is edge_intersection_graph(rep)
    assert edge_intersection_graph(rep) == S3_GRAPH
    assert verify(rep, S3_GRAPH) == (True, None)
    assert vars(rep)["_graph"] is edge_intersection_graph(rep)


def test_catalog_stars_answer_the_same_with_warm_caches():
    for recipe in enumerate_gates().values():
        gate = build_gate(recipe)
        whole = (tuple(range(gate.graph.n)), recipe)
        assert_caches_change_no_answer(star_representation(gate), gate.graph, [whole])


def test_claw_scan_finds_the_first_claw():
    # the covering vertices of the pairs (1, 2), (1, 3) and (2, 3)
    claw = (ClawClique(0, (1, 2, 3)), (2, 5, 3))
    rep = EptRepresentation(S3_REP.tree, S3_REP.paths)
    assert find_claw_violation(rep) == claw
    assert is_helly(rep) == (False, (2, 3, 5))
    assert find_claw_violation(rep) == claw
    assert find_claw_violation(rep, subset=(5, 3, 2)) == claw
    assert find_claw_violation(rep, subset=(0, 1, 4)) is None


def test_caches_leave_equality_hash_and_repr_alone():
    cold = EptRepresentation(S3_REP.tree, S3_REP.paths)
    warm = EptRepresentation(S3_REP.tree, S3_REP.paths)
    clique_witnesses(warm)
    verify(warm, S3_GRAPH)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert repr(warm) == f"EptRepresentation(tree={S3_REP.tree!r}, paths={S3_REP.paths!r})"
    assert warm != EptRepresentation(S3_REP.tree, S3_REP.paths[::-1])

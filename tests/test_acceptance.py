"""Acceptance suite: one test per stated criterion.

The shared corpus is every connected graph on at most 7 vertices up to
isomorphism. Graphs whose clique count already breaks the global clique
bound (and therefore cannot be Helly EPT) sit outside the oracle's
clique budget and are excluded from membership scans; the exclusion is
re-justified by the bound inside the fixture.
"""

import gc
import hashlib
import math
import random
import time
from collections import Counter

import pytest

from eptkit import recognition
from eptkit.decomposition import _separator_splits, atoms
from eptkit.gates import (
    GateRecipe,
    build_gate,
    check_two_clique_property,
    contains_gate_ge,
    enumerate_gates,
    is_gate,
    rewire_gate,
)
from eptkit.graphs import (
    Graph,
    _components,
    _mask,
    canonical_form,
    cycle_graph,
    enumerate_maximal_cliques,
    graph_to_text,
    induced_subgraph,
    is_connected,
)
from eptkit.oracle import oracle_membership, small_graph_corpus, tree_shapes
from eptkit.recognition import (
    cheapest_representation,
    helly_h_membership,
    is_chordal,
    is_helly_ept,
    is_interval,
)
from eptkit.representation import (
    ClawClique,
    EdgeClique,
    EptRepresentation,
    HostTree,
    classify_clique,
    find_multipie,
    find_pie,
    is_helly,
    max_host_degree,
    representation_to_text,
    star_representation,
    verify,
)
from reference import check_multipie_conditions, check_side_witness, oracle_min_h
from test_representation import assert_caches_change_no_answer
from test_side_test import wide_chordal

MEMBERSHIP_BUDGET_SECS = 600.0

S3_GRAPH = Graph(6, [
    (2, 3), (3, 5), (2, 5), (0, 2), (0, 3), (1, 3), (1, 5), (2, 4), (4, 5),
])


def clique_bound(n: int) -> int:
    return (3 * n - 4) // 2


@pytest.fixture(scope="session")
def corpus7():
    graphs = [
        g
        for n in range(1, 8)
        for g in small_graph_corpus(n, connected_only=True)
    ]
    assert len(graphs) == 996
    return graphs


@pytest.fixture(scope="session")
def helly_corpus(corpus7):
    """(graph, representation) for every Helly EPT member of the corpus."""
    members = []
    excluded = 0
    for g in corpus7:
        m = len(enumerate_maximal_cliques(g))
        if m > 9:
            # over the oracle's clique budget; such graphs are already
            # ruled out because the clique bound caps members at 8
            assert m > clique_bound(g.n)
            excluded += 1
            continue
        rep = oracle_membership(g, budget_secs=MEMBERSHIP_BUDGET_SECS)
        if rep is not None:
            members.append((g, rep))
    assert excluded == 11
    assert len(members) == 587
    return members


def test_criterion_1_gate_round_trip():
    start = time.perf_counter()
    catalog = enumerate_gates(12)
    picks = [r for r in catalog.values() if 4 <= r.clique_count() <= 8]
    assert len(picks) >= 10
    for recipe in picks:
        gate = build_gate(recipe)
        k = recipe.clique_count()
        rep = star_representation(gate)
        assert verify(rep, gate.graph) == (True, None)
        assert is_helly(rep) == (True, None)
        assert max_host_degree(rep) == k
        witness = find_multipie(rep, tuple(range(gate.graph.n)), k)
        check_multipie_conditions(rep, witness, k)
    assert time.perf_counter() - start < 60


def test_criterion_2_cycle_exactness():
    start = time.perf_counter()
    for n in range(4, 9):
        c = cycle_graph(n)
        result = cheapest_representation(c)
        assert result.helly_ept and result.h == n
        assert oracle_min_h(c) == n
    assert time.perf_counter() - start < 300


@pytest.fixture(scope="session")
def cheapest_corpus(helly_corpus):
    """cheapest_representation of every corpus member, in fixture order."""
    return [cheapest_representation(g) for g, _ in helly_corpus]


def test_criterion_3_characterization(helly_corpus, cheapest_corpus):
    disagreements = []
    for (g, _), result in zip(helly_corpus, cheapest_corpus):
        assert helly_h_membership(g, 3) == (result.h <= 3), graph_to_text(g)
        for h in range(3, 7):
            witness = contains_gate_ge(g, h)
            if (result.h <= h) != (witness is None):
                disagreements.append((graph_to_text(g), h))
    assert disagreements == []


def test_criterion_4_min_h_agreement(helly_corpus, cheapest_corpus):
    # the oracle's minimum over bijection trees is the degree of the
    # first accepting one, the fixture's certificate
    discrepancies = []
    for (g, rep), result in zip(helly_corpus, cheapest_corpus):
        expected = max(2, rep.tree.max_degree())
        if result.h != expected:
            discrepancies.append(
                f"graph {graph_to_text(g)!r}: formula {result.h}, oracle {expected}"
            )
    assert discrepancies == []


def test_criterion_5_atom_formula(helly_corpus, cheapest_corpus):
    for (g, _), result in zip(helly_corpus, cheapest_corpus):
        k = max(len(enumerate_maximal_cliques(atom)) for atom, _ in atoms(g))
        if k >= 4:
            expected = k
        else:
            expected = 2 if is_interval(g) else 3
        assert result.h == expected, graph_to_text(g)


def test_criterion_6_figure_fidelity():
    # pie of the 5-cycle
    rep = star_representation(build_gate_c5())
    assert verify(rep, cycle_graph(5)) == (True, None)
    assert is_helly(rep) == (True, None)
    assert find_pie(rep, (0, 1, 2, 3, 4)).center == 0
    # branching-tree representation with a claw clique
    s3_rep = EptRepresentation(
        HostTree(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]),
        ((0, 2, 5), (0, 3, 6), (1, 0, 2), (2, 0, 3), (0, 1, 4), (3, 0, 1)),
    )
    assert verify(s3_rep, S3_GRAPH) == (True, None)
    ok, violating = is_helly(s3_rep)
    assert not ok and violating == (2, 3, 5)
    assert isinstance(classify_clique(s3_rep, (2, 3, 5)), ClawClique)
    for triangle in ((0, 2, 3), (1, 3, 5), (2, 4, 5)):
        assert isinstance(classify_clique(s3_rep, triangle), EdgeClique)


def build_gate_c5():
    return build_gate(GateRecipe(5))


def test_criterion_7_negative_instance():
    # a relabeled copy; nothing is kept between calls, so the
    # exhaustive search runs inside the timed window for any labeling
    perm = [4, 0, 5, 1, 3, 2]
    shuffled = Graph(6, [(perm[u], perm[v]) for u, v in S3_GRAPH.edges])
    gc.collect()
    start = time.perf_counter()
    assert is_helly_ept(shuffled) is None
    assert time.perf_counter() - start < 1.0


def test_criterion_8_clique_bound(helly_corpus):
    for g, _ in helly_corpus:
        if g.n < 2:
            # the bound formula is negative on the one-vertex graph
            continue
        assert len(enumerate_maximal_cliques(g)) <= clique_bound(g.n)


def test_criterion_8_decomposition_invariance(helly_corpus):
    rng = random.Random(20240809)
    sample = [g for g, _ in helly_corpus if g.n >= 4][::60]
    for g in sample:
        base = sorted(
            canonical_form(atom) for atom, _ in atoms(g)
        )
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            shuffled = sorted(canonical_form(atom) for atom, _ in atoms(h))
            assert shuffled == base, graph_to_text(g)


def test_atom_test_on_whole_corpus(corpus7, helly_corpus):
    # cheapest_representation names an obstruction exactly when an atom
    # fails the atom test; non-members that pass it get none
    members = {g for g, _ in helly_corpus}
    counts = Counter()
    for g in corpus7:
        result = cheapest_representation(g)
        if g in members:
            assert result.helly_ept, graph_to_text(g)
            continue
        assert not result.helly_ept, graph_to_text(g)
        in_cap = len(enumerate_maximal_cliques(g)) <= 9
        failed = result.obstruction is not None
        counts[in_cap, failed] += 1
        if failed:
            assert result.obstruction in {vertices for _, vertices in atoms(g)}
    # 385 of 398 in-cap non-members fail the atom test; all 11 excluded
    # graphs do, so they get a witness instead of BoundExceededError
    assert counts == {(True, True): 385, (True, False): 13, (False, True): 11}


def test_side_test_on_whole_corpus(corpus7, helly_corpus):
    # no member is rejected by the side test, and every in-cap non-member
    # that passes the atom test and the pendant filter is, as given and
    # relabelled, with a witness that checks on its own
    members = {g for g, _ in helly_corpus}
    rng = random.Random(20261019)
    counts = Counter()
    for g in corpus7:
        if len(enumerate_maximal_cliques(g)) > 9:
            continue
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])):
            result = cheapest_representation(h)
            if result.side_witness is not None:
                assert g not in members, graph_to_text(g)
                check_side_witness(h, result.side_witness)
                counts["chordal" if is_chordal(g) else "not chordal"] += 1
            elif not result.helly_ept:
                counts["other"] += 1
    # 385 atom-test rejections and one pendant-filter rejection, twice
    assert counts == {"chordal": 22, "not chordal": 2, "other": 772}


def test_scan_members_keep_the_pruning_facts(corpus7, helly_corpus, monkeypatch):
    # two facts a pruned scan would rest on, on every member of corpus7
    # and wide-chordal that reaches the scan, against the scan's own
    # certificate: each maximal clique that the separator table says
    # separates nothing is a leaf edge of the certificate tree (the
    # internal-edge lemma, recognition._pendant_answer), and the tree of
    # a non-chordal member has maximum degree at least the route's h = k
    reps = dict(helly_corpus)
    real_scan = recognition._scan
    reached = {}

    def scan(cliques, adj, deadline):  # the route's scan of `current`
        g = current
        reached[g] = reps[g] if g in reps else real_scan(cliques, adj, deadline)
        return reached[g]

    monkeypatch.setattr(recognition, "_scan", scan)
    counts = Counter()
    for g in [g for g in corpus7 if len(enumerate_maximal_cliques(g)) <= 9] + [
        g for _, g in wide_chordal()
    ]:
        reached.clear()
        current = g
        result = cheapest_representation(g)
        rep = reached.get(g)
        if rep is None:
            continue
        adj = g._adj
        cliques = enumerate_maximal_cliques(g)
        masks = [_mask(c) for c in cliques]
        separating, _ = recognition._separator_table(
            g.n, masks, _separator_splits(g, math.inf), math.inf
        )
        # the facts rest on the search, not on the table
        everything = (1 << g.n) - 1
        assert separating == [len(_components(adj, everything & ~m)) > 1 for m in masks]
        edge_of = {held: e for e, held in rep._edge_holders.items()}
        for clique, cuts in zip(cliques, separating):
            u, v = edge_of[clique]
            if not cuts:
                assert min(rep.tree.degree(u), rep.tree.degree(v)) == 1, graph_to_text(g)
                counts["leaf"] += 1
        chordal = is_chordal(g)
        if not chordal:
            assert max_host_degree(rep) >= result.h, graph_to_text(g)
        counts["chordal" if chordal else "not chordal"] += 1
    # 343 chordal and 191 non-chordal corpus7 members, 21 wide-chordal
    assert counts == {"chordal": 364, "not chordal": 191, "leaf": 1213}


# sha256 over the repr of each generated family, in generation order;
# the corpus certificates below are built on all three
FAMILIES_SHA256 = {
    "tree_shapes": "7259bdb241209075dcf3a0a5da1a0d2e250ab6d98be651054737b17dda92033a",
    "gates10": "bcedb2b6385cb77f7a4c75b78506e4de1272acacb92036a28ef3e54672ef2999",
    "gates12": "5b8878abd99eacb12cd48b26213ad4b3fae62a1aff2a9f0276d0bc472a54904c",
    "corpus": "339c49d0e6c79bb6864cfa25e1bd732d3879153deb9796ffbcc86d05821c97d9",
}


def generated_family(name: str) -> list:
    if name == "tree_shapes":
        return [[(s.n, s.edges) for s in tree_shapes(m)] for m in range(10)]
    if name.startswith("gates"):
        return [(form.hex(), recipe) for form, recipe in enumerate_gates(int(name[5:])).items()]
    return [[g.sorted_edges() for g in small_graph_corpus(n)] for n in range(8)]


@pytest.mark.parametrize("name", sorted(FAMILIES_SHA256))
def test_generated_families_pinned(name):
    # representatives, their labellings and their order: skipping
    # candidates that are images of earlier ones must not move them
    digest = hashlib.sha256(repr(generated_family(name)).encode()).hexdigest()
    assert digest == FAMILIES_SHA256[name]


# sha256 over representation_to_text of every corpus member's
# certificate in fixture order, and over those of the members under one
# random.Random(20261018) relabelling each
CORPUS_CERTIFICATES_SHA256 = "27d7b5f632b35079e63e4a959e1cb9711decfa1914d7d5a062355d1c5cd8b73a"
RELABELLED_CERTIFICATES_SHA256 = "690d6922974075cd4c78437c15769e80a81420529558b190a4dc200b809e1751"


def test_corpus_certificates_pinned(helly_corpus):
    # the scan's certificates are byte-stable for all 587 members, not
    # only for the few pinned in test_oracle.py
    given = hashlib.sha256()
    relabelled = hashlib.sha256()
    rng = random.Random(20261018)
    for g, rep in helly_corpus:
        given.update(representation_to_text(rep).encode())
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        rep_h = oracle_membership(h, budget_secs=MEMBERSHIP_BUDGET_SECS)
        relabelled.update(representation_to_text(rep_h).encode())
    assert given.hexdigest() == CORPUS_CERTIFICATES_SHA256
    assert relabelled.hexdigest() == RELABELLED_CERTIFICATES_SHA256


def test_certificates_answer_the_same_with_warm_caches(helly_corpus, cheapest_corpus):
    # the scan's and the route's certificate of every member
    for (g, rep), result in zip(helly_corpus, cheapest_corpus):
        assert_caches_change_no_answer(rep, g)
        if result.certificate is not None:
            assert_caches_change_no_answer(result.certificate, g)


def test_star_route_matches_scan_on_corpus(corpus7, monkeypatch):
    # every in-cap corpus graph with no separating maximal clique that is
    # non-chordal and passes the atom test is answered without the scan;
    # the scan stays the reference for verdict and certificate bytes
    from eptkit import recognition

    # None is not callable, so a call into the scan fails the test
    monkeypatch.setattr(recognition, "_scan", None)
    rng = random.Random(20261018)
    counts = Counter()
    for g in corpus7:
        cliques = enumerate_maximal_cliques(g)
        if len(cliques) > 9 or is_chordal(g):
            continue
        if any(
            not is_connected(induced_subgraph(g, set(range(g.n)) - set(c))[0]) for c in cliques
        ):
            continue
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])):
            result = cheapest_representation(h)
            if result.obstruction is not None:
                counts["atom test"] += 1
                continue
            rep = oracle_membership(h, budget_secs=MEMBERSHIP_BUDGET_SECS)
            assert result.helly_ept == (rep is not None), graph_to_text(h)
            if rep is not None:
                assert result.certificate is not None
                assert representation_to_text(result.certificate) == representation_to_text(rep)
            counts[result.helly_ept] += 1
    # the no-separating-clique non-members all fail the atom test
    assert counts == {True: 106, "atom test": 434}


def test_criterion_8_gate_invariants():
    catalog = enumerate_gates(12)
    by_k = Counter(r.clique_count() for r in catalog.values())
    assert {k: by_k[k] for k in (4, 5, 6)} == {4: 1, 5: 2, 6: 4}
    for recipe in catalog.values():
        gate = build_gate(recipe)
        # unique-pair structure: every vertex in exactly two cliques
        # meeting in that vertex alone
        ok, violator = check_two_clique_property(gate.graph)
        assert ok, (recipe, violator)
    # rewiring closure on the small catalog gates
    for recipe in catalog.values():
        if recipe.vertex_count() > 8:
            continue
        gate = build_gate(recipe)
        for v in range(0, gate.graph.n, 3):
            for t in (2, 3):
                rewired = rewire_gate(gate, v, t)
                assert is_gate(rewired.graph) is not None
                ok, _ = check_two_clique_property(rewired.graph)
                assert ok

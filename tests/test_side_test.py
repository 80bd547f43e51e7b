"""The side test at a separating maximal clique: the clique reader it
starts from on chordal graphs, its soundness against the scan, the
graphs it must reject and the ones it cannot, and its witnesses
checked independently."""

import gc
import itertools
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from eptkit import decomposition, recognition
from eptkit.cli import main
from eptkit.graphs import (
    BoundExceededError,
    Graph,
    _components,
    connected_components,
    cycle_graph,
    enumerate_maximal_cliques,
    graph_to_text,
    is_connected,
)
from eptkit.oracle import small_graph_corpus
from eptkit.recognition import RecognitionResult, SideWitness, cheapest_representation, is_helly_ept
from reference import capped_sides, check_side_witness, searched_side_test
from test_recognition import S3_GRAPH, refuse

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def edge_list(n: int, text: str) -> Graph:
    return Graph(n, [tuple(map(int, e.split("-"))) for e in text.split()])


def wide_chordal() -> list[tuple[str, Graph]]:
    """perfbench's 29 wide-chordal inputs with their ids."""
    out = []
    for line in (DATA / "wide_chordal.txt").read_text().splitlines():
        if not line.startswith("#"):
            gid, n, _, *edges = line.split()
            out.append((gid, edge_list(int(n), " ".join(edges))))
    return out


# minimal non-members that pass the atom test, the pendant filter and
# the side test: only the scan rules them out
BASELINE_A = edge_list(8, "0-1 0-3 0-4 0-5 0-7 1-2 2-5 3-4 4-5 5-6 5-7 6-7")
BASELINE_B = edge_list(8, "0-3 0-6 0-7 1-3 1-5 1-6 2-3 2-4 3-4 3-6 4-6 5-6 6-7")
BASELINE_C = edge_list(9, "0-1 0-2 0-3 0-4 0-5 0-8 1-2 1-3 1-4 2-3 2-4 2-5 2-6 3-8 4-7 6-7")
# the two 7-vertex minimal non-members, besides S3, that pass the atom test
MINIMAL_7 = [
    edge_list(7, "0-3 0-4 0-5 0-6 1-4 1-6 2-5 2-6 3-5 5-6"),
    edge_list(7, "0-3 0-4 0-5 0-6 1-4 1-6 2-5 2-6 3-6 4-5 4-6 5-6"),
]


def side_table(g: Graph) -> tuple[list[int], list]:
    """The maximal cliques of a connected g, as masks, and the separator
    table the route reads: off the clique tree for a chordal g, else off
    MCS-M's clique minimal separators, whatever route g would take."""
    found = recognition._chordal_cliques(g)
    if found is not None:
        masks = [recognition._mask(c) for c in found[0]]
        holders = recognition._holders(g.n, found[0])
        return masks, recognition._clique_tree_table(masks, holders, found[1])
    cliques = enumerate_maximal_cliques(g)
    masks = [recognition._mask(c) for c in cliques]
    splits = decomposition._separator_splits(g, math.inf)
    holders = recognition._holders(g.n, cliques)
    return masks, recognition._separator_table(masks, holders, splits, math.inf)[1]


def side_test(g: Graph):
    """The side test on a connected g at every maximal clique, on the
    table of side_table."""
    masks, table = side_table(g)
    return recognition._side_witness(g, masks, table, math.inf)


def hung_s3(n: int) -> Graph:
    """C_n with an S3 hung from vertex 0 by one edge to S3's vertex 0."""
    edges = list(cycle_graph(n).edges) + [(u + n, v + n) for u, v in S3_GRAPH.edges]
    return Graph(n + 6, edges + [(0, n)])


def k8_with_ears(r: int) -> Graph:
    """K_8 with r ears on its edge {0, 1}, each a vertex adjacent to 0
    and 1, and a C_5 through vertex 2. At every ear's clique the other
    ears are r - 1 twin components of g - K."""
    edges = list(itertools.combinations(range(8), 2))
    edges += [(x, 8 + i) for i in range(r) for x in (0, 1)]
    ring = [2] + [8 + r + i for i in range(4)]
    edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
    return Graph(8 + r + 4, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def test_clique_reader_matches_enumeration():
    # the reader lists enumerate_maximal_cliques' cliques exactly when g
    # is chordal, and its forest is a clique tree per component
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261019)
    graphs = [g for n in range(1, 8) for g in small_graph_corpus(n)]
    graphs += [g for _, g in wide_chordal()]
    for _ in range(3000):
        graphs.append(random_graph(rng, rng.randint(5, 25), rng.choice((0.08, 0.15, 0.3, 0.5))))
    chordal = 0
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        found = recognition._chordal_cliques(g)
        assert (found is not None) == nx.is_chordal(h), g.edges
        if found is None:
            continue
        chordal += 1
        cliques, parent = found
        assert cliques == enumerate_maximal_cliques(g)
        assert parent.count(-1) == len(connected_components(g))
        for v in range(g.n):
            # v's cliques are a subtree: all but one have their parent among them
            holding = [i for i, c in enumerate(cliques) if v in c]
            assert sum(v in cliques[parent[i]] for i in holding if parent[i] >= 0) == len(holding) - 1
    assert chordal >= 1500


def test_chordal_witness_takes_the_first_component_per_attachment():
    # components (1,) and (2, 3, 7) of g - K both attach at {0, 5}, and
    # the witness names the first of them
    g = edge_list(12, (
        "0-1 0-2 0-3 0-4 0-5 0-6 0-7 0-8 0-9 0-10 0-11 1-5 2-3 2-5 2-7 3-5 3-7"
        " 4-5 4-6 4-8 4-10 4-11 5-7 5-10 5-11 6-8 9-10 9-11 10-11"
    ))
    witness = side_test(g)
    check_side_witness(g, witness)
    assert witness == SideWitness(
        (0, 4, 5, 10, 11), ((6, 8), (1,), (9,)), ((0, 4), (0, 5), (0, 10, 11))
    )


def test_disconnected_chordal_input_still_raises():
    # two S3s would each give the side test an odd cycle; two triangles
    # have too few cliques for it
    two_s3 = Graph(12, list(S3_GRAPH.edges) + [(u + 6, v + 6) for u, v in S3_GRAPH.edges])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g in (two_s3, two_triangles):
        with pytest.raises(ValueError, match="connected"):
            cheapest_representation(g)


def test_baseline_non_members_pass_the_side_test():
    # the lemma's limit: each reaches the scan, which rules it out
    for g, chordal in ((BASELINE_A, False), (BASELINE_B, True), (BASELINE_C, False)):
        assert recognition.is_chordal(g) == chordal
        assert side_test(g) is None
        assert cheapest_representation(g) == RecognitionResult(False, None, None)
        assert is_helly_ept(g) is None


def test_minimal_non_members_rejected_without_the_scan(monkeypatch):
    monkeypatch.setattr(recognition, "_scan", refuse("_scan"))
    for g in MINIMAL_7 + [S3_GRAPH]:
        result = cheapest_representation(g)
        assert not result.helly_ept and result.obstruction is None
        check_side_witness(g, result.side_witness)


@pytest.mark.parametrize("n", [40, 400])
def test_hung_s3_rejected_past_the_clique_bound(monkeypatch, n):
    # n + 10 cliques: the scan would raise BoundExceededError
    monkeypatch.setattr(recognition, "_scan", refuse("_scan"))
    g = hung_s3(n)
    result = cheapest_representation(g)
    assert not result.helly_ept and result.obstruction is None
    assert result.side_witness.clique == (n + 2, n + 3, n + 5)
    check_side_witness(g, result.side_witness)


def test_recognize_hung_s3(capsys, tmp_path):
    p = tmp_path / "c40s3.txt"
    p.write_text(graph_to_text(hung_s3(40)))
    assert main(["recognize", str(p)]) == 1
    assert capsys.readouterr().out == "not-helly-ept\n"


def test_large_chordal_inputs_skip_the_search(monkeypatch):
    # the chordal route reads the side test off the clique tree: a search
    # of g - K at each of these graphs' 2 000 cliques took seconds, where
    # the scan refuses them at once; no search per separator either
    for name in ("_components", "_separator_splits", "_separator_table", "enumerate_maximal_cliques"):
        monkeypatch.setattr(recognition, name, refuse(name))
    rng = random.Random(20261021)
    n = 2000
    tree = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
    star = Graph(n + 1, [(0, v) for v in range(1, n + 1)])
    book = Graph(n + 2, [(0, 1)] + [(u, v) for v in range(2, n + 2) for u in (0, 1)])
    square = Graph(n, [(u, v) for u in range(n) for v in (u + 1, u + 2) if v < n])
    for g in (tree, star, book, square):
        with pytest.raises(BoundExceededError):
            cheapest_representation(g)


def test_side_test_on_wide_chordal():
    # it rejects exactly the eight non-members w16-w23, each as given
    # and relabelled, and the clique tree agrees with a search of g - K
    rng = random.Random(20261019)
    rejected = []
    for gid, g in wide_chordal():
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])):
            witness = side_test(h)
            assert (witness is None) == (searched_side_test(h) is None), gid
            if witness is not None:
                check_side_witness(h, witness)
                rejected.append(gid)
    assert rejected == [f"w{i}" for i in range(16, 24) for _ in range(2)]


def test_side_test_sound_on_random_graphs():
    # every rejection among 1 500 connected graphs on 8-10 vertices with
    # at most 9 cliques is a non-member by the scan, with a valid witness
    rng = random.Random(20261020)
    tried = rejected = chordal = 0
    while tried < 1500:
        g = random_graph(rng, rng.randint(8, 10), rng.choice((0.25, 0.35, 0.45)))
        if not is_connected(g) or len(enumerate_maximal_cliques(g)) > 9:
            continue
        tried += 1
        witness = side_test(g)
        if recognition.is_chordal(g):
            chordal += 1
            assert (witness is None) == (searched_side_test(g) is None), g.edges
        if witness is not None:
            rejected += 1
            check_side_witness(g, witness)
            assert is_helly_ept(g) is None, g.edges
    assert (rejected, chordal) == (29, 249)


def test_side_test_on_many_twin_ears():
    # r twin components at each of r cliques: the table finds the twin
    # classes once, at their separator {0, 1}, and each clique reads at
    # most three per class, so the side test is near O(r) in all, where
    # testing every pair cost O(r^3) (29 s at r = 400) and indexing every
    # component at every clique O(r^2) (4.0 s at r = 1 000). No odd
    # cycle, so the scan's clique bound answers
    for r in (400, 1000):
        g = k8_with_ears(r)
        gc.collect()
        start = time.perf_counter()
        with pytest.raises(BoundExceededError):
            cheapest_representation(g)
        assert time.perf_counter() - start < 1.0, r


def test_twin_cap_keeps_a_triangle_of_twins():
    # K_4 with five paths 0-x-y-1: at K_4 the five path components are
    # twins, no clique meeting one holds both 0 and 1, so they pairwise
    # relate; the first three close the witness's triangle
    edges = list(itertools.combinations(range(4), 2))
    for i in range(5):
        x, y = 4 + 2 * i, 5 + 2 * i
        edges += [(0, x), (x, y), (y, 1)]
    g = Graph(14, edges)
    witness = side_test(g)
    assert witness == searched_side_test(g)
    assert witness.clique == (0, 1, 2, 3)
    assert sorted(witness.components) == [(4, 5), (6, 7), (8, 9)]
    check_side_witness(g, witness)


def table_sides(rows) -> list:
    """The components of g - K that the side test reads off the table's
    rows at K, as in recognition._side_witness: the first three of each
    class but the one holding K - S, in order of lowest vertex."""
    sides = []
    for (attach, twins), home in rows:
        for traces, parts in twins:
            sides += [(part, attach, traces) for part in parts if part != home][:3]
    return sorted(sides, key=lambda side: side[0] & -side[0])


def test_table_matches_a_search_per_clique():
    # on the connected graphs of 4 to 7 vertices and seeded random graphs
    # of 8 to 16, at every maximal clique K: F1 lists the components of
    # g - K by their attachments, with the leftover; at a K that
    # separates g, the table hands the side test what a search of g - K
    # gives it; and F2's "K separates" is the search's answer
    rng = random.Random(20261025)
    graphs = [g for n in range(4, 8) for g in small_graph_corpus(n, connected_only=True)]
    while len(graphs) < 2500:
        g = random_graph(rng, rng.randint(8, 16), rng.choice((0.15, 0.25, 0.35)))
        if is_connected(g):
            graphs.append(g)
    seen = Counter()
    for g in graphs:
        adj = g._adj
        everything = (1 << g.n) - 1
        cliques = enumerate_maximal_cliques(g)
        masks = [recognition._mask(c) for c in cliques]
        splits = decomposition._separator_splits(g, math.inf)
        separators = [sep for sep, _ in splits]
        holders = recognition._holders(g.n, cliques)
        separating, table = recognition._separator_table(masks, holders, splits, math.inf)
        below = {s: _components(adj, everything & ~s) for s in separators}
        for k, clique in enumerate(masks):
            split = _components(adj, everything & ~clique)
            listed = Counter(
                s for s in separators if not s & ~clique
                for part, attach in below[s] if attach == s and not part & clique
            )
            leftover = [attach for _, attach in split if attach == clique and clique not in below]
            assert Counter(attach for _, attach in split) == listed + Counter(leftover), g.edges
            assert len(leftover) <= 1
            sides = capped_sides(masks, clique, split)
            if separating[k]:
                assert table_sides(table[k]) == sides, g.edges
            else:  # no leftover row, and one component at most
                assert table_sides(table[k]) in (sides, []) and len(sides) <= 1, g.edges
            assert separating[k] == (len(split) > 1), g.edges
            seen["leftover" if leftover else "none", separating[k]] += 1
    assert min(seen.values()) >= 1000, seen


def test_clique_tree_table_matches_a_search_per_clique():
    # on chordal graphs the clique tree gives each separator of two
    # vertices or more inside K once, for all the components of g - K
    # that a search attaches there; with fewer than three such separators
    # in all, no odd cycle fits and the table is empty
    rng = random.Random(20261026)
    graphs = [g for _, g in wide_chordal()]
    graphs += [g for n in range(4, 8) for g in small_graph_corpus(n, connected_only=True)]
    while len(graphs) < 4000:
        # the larger ones have three separators or more more often
        n = rng.randint(6, 16) if len(graphs) < 2500 else rng.randint(17, 30)
        # each new vertex sees part of an earlier clique, so it is
        # simplicial when added and the graph is chordal
        edges, cliques = [], [[0]]
        for v in range(1, n):
            base = rng.choice(cliques)
            seen = rng.sample(base, rng.randint(1, len(base)))
            edges += [(w, v) for w in seen]
            cliques.append(seen + [v])
        graphs.append(Graph(n, edges))
    tested = Counter()
    for g in graphs:
        found = recognition._chordal_cliques(g)
        if found is None:
            continue
        masks = [recognition._mask(c) for c in found[0]]
        table = recognition._clique_tree_table(masks, recognition._holders(g.n, found[0]), found[1])
        adj = g._adj
        wanted = []
        for clique in masks:
            split = _components(adj, (1 << g.n) - 1 & ~clique)
            wanted.append({attach for _, attach in split if attach & (attach - 1)})
        full = len(set().union(*wanted)) >= 3
        tested[full] += 1
        for rows, attached in zip(table, wanted):
            got = [attach for _, attach, _ in table_sides(rows)]
            assert sorted(got) == (sorted(attached) if full else []), g.edges
    assert tested[True] >= 1000 and tested[False] >= 1000, tested

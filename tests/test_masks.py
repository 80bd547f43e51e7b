"""The route before the scan on vertex masks, against the set-based
Bron-Kerbosch and MCS-M it replaced (tests/reference.py): clique
listing, clique counts, clique minimal separators, the decomposition
and cheapest_representation's answers."""

import itertools
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from eptkit import decomposition, gates, oracle, recognition, representation
from eptkit import graphs as graph_module
from eptkit.decomposition import AtomLeaf, SeparatorNode, CliqueDecomposition, tree_to_text
from eptkit.graphs import (
    BoundExceededError,
    Graph,
    _clique_masks,
    _components,
    _mask,
    _members,
    connected_components,
    cycle_graph,
    induced_subgraph,
    is_connected,
)
from eptkit.oracle import BudgetExhaustedError, small_graph_corpus
from eptkit.recognition import cheapest_representation, is_helly_ept
from eptkit.representation import representation_to_text
from reference import reference_clique_minimal_separators, reference_maximal_cliques

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def perfbench_graphs(name: str) -> list[Graph]:
    """The graphs of perfbench/data/<name>.txt, in file order."""
    out = []
    for line in (DATA / f"{name}.txt").read_text().splitlines():
        if not line.startswith("#"):
            _, n, _, *edges = line.split()
            out.append(Graph(int(n), [tuple(map(int, e.split("-"))) for e in edges]))
    return out


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def corpus() -> list[Graph]:
    """Every graph on up to 7 vertices, connected or not, then each
    relabelled once."""
    rng = random.Random(20261019)
    given = [g for n in range(1, 8) for g in small_graph_corpus(n)]
    return given + [relabeled(g, rng) for g in given]


def random_graphs() -> list[Graph]:
    """2 000 seeded G(n, p) graphs, n from 1 to 16."""
    rng = random.Random(20261020)
    out = []
    for _ in range(2000):
        n = rng.randint(1, 16)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        out.append(Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    return out


def large_shapes() -> list[Graph]:
    """C_2000, C_1000 with every vertex doubled by a true twin, C_600
    with a pendant at every vertex and C_5 with 2 000 pendants at one
    vertex."""
    n = 1000
    twins = Graph(2 * n, [(2 * i, 2 * i + 1) for i in range(n)] + [
        (2 * i + a, 2 * ((i + 1) % n) + b) for i in range(n) for a in (0, 1) for b in (0, 1)
    ])
    n = 600
    pendants = Graph(2 * n, list(cycle_graph(n).edges) + [(i, n + i) for i in range(n)])
    hub = Graph(2005, list(cycle_graph(5).edges) + [(0, 5 + i) for i in range(2000)])
    return [cycle_graph(2000), twins, pendants, hub]


@pytest.fixture(scope="module")
def families() -> dict[str, list[Graph]]:
    return {
        "corpus": corpus(),
        "wide-chordal": perfbench_graphs("wide_chordal"),
        "random": random_graphs(),
        "large": large_shapes(),
    }


def test_clique_listing_matches_reference(families):
    # the same cliques in the same order, so a caller stopping early
    # sees the same prefix
    for graphs in families.values():
        for g in graphs:
            listed = list(map(_members, _clique_masks(g._adj)))
            assert listed == list(reference_maximal_cliques(g)), g.edges


def test_clique_count_matches_reference_at_every_limit(families):
    # on the large shapes, with 1 000 to 2 005 cliques, a sample of
    # limits around the ends and the middle
    for name, graphs in families.items():
        for g in graphs:
            k = sum(1 for _ in reference_maximal_cliques(g))
            limits = range(k + 2) if name != "large" else (0, 1, 2, k // 2, k - 1, k, k + 1)
            adj = g._adj
            assert [gates._clique_count(adj, limit) for limit in limits] == [
                min(k, limit) for limit in limits
            ], g.edges


def test_clique_minimal_separators_match_reference(families):
    # the bucket tie-break numbers vertices in another order, yet lists
    # the same separators
    for graphs in families.values():
        for g in graphs:
            if g.n and is_connected(g):
                got = decomposition._clique_minimal_separators(g)
                assert got == reference_clique_minimal_separators(g), g.edges


def rebuilt_tree(g: Graph) -> CliqueDecomposition:
    """The decomposition tree that splits every node at the first clique
    minimal separator of its own induced subgraph, from the set-based
    MCS-M run on that subgraph, with the parts in order of their lowest
    vertices."""

    def build(vertices: tuple[int, ...]) -> SeparatorNode | AtomLeaf:
        sub, mapping = induced_subgraph(g, vertices)
        separators = reference_clique_minimal_separators(sub)
        if not separators:
            return AtomLeaf(vertices, sub)
        sep = separators[0]
        rest, back = induced_subgraph(sub, [v for v in range(sub.n) if v not in sep])
        children = tuple(
            build(tuple(sorted(mapping[v] for v in sep + tuple(back[u] for u in part))))
            for part in connected_components(rest)
        )
        return SeparatorNode(tuple(mapping[v] for v in sep), children)

    return CliqueDecomposition(g, build(tuple(range(g.n))))


def test_decomposition_matches_reference(families):
    # each node of the library's tree resumes its parent's candidate
    # list; the rebuilt tree runs MCS-M afresh at every node
    for name in ("corpus", "wide-chordal", "random"):
        for g in families[name]:
            if g.n and is_connected(g):
                assert tree_to_text(decomposition.decomposition_tree(g)) == tree_to_text(
                    rebuilt_tree(g)
                ), g.edges


def test_atom_masks_are_the_public_atoms(families):
    # of the large shapes, the two with many atoms
    for name, graphs in families.items():
        for g in graphs[2:] if name == "large" else graphs:
            if g.n and is_connected(g):
                leaves = decomposition.decomposition_tree(g).leaves()
                splits = decomposition._separator_splits(g, math.inf)
                assert list(decomposition._atom_masks(g.n, splits, math.inf)) == [
                    _mask(leaf.vertices) for leaf in leaves
                ], g.edges


def test_split_loop_parts_match_a_search_at_every_node(families):
    # the module docstring's lemma: at every node V of the tree, the
    # parts read off the one search of g - S are those of a search of
    # g[V] - S, and no candidate the node scans before S* splits g[V].
    # The walk below tracks where each node's scan starts
    for name, graphs in families.items():
        for g in graphs[2:] if name == "large" else graphs:
            if g.n and is_connected(g):
                adj = g._adj
                splits = decomposition._separator_splits(g)
                stack = [((1 << g.n) - 1, 0)]
                for vertices, split in decomposition._preorder(g.n, splits):
                    node, start = stack.pop()
                    assert vertices == node, g.edges
                    end = len(splits) if split is None else split[0]
                    for sep, _ in splits[start:end]:
                        if not sep & ~vertices:
                            assert len(_components(adj, vertices & ~sep)) <= 1, g.edges
                    if split is not None:
                        i, parts = split
                        sep = splits[i][0]
                        assert parts == [part for part, _ in _components(adj, vertices & ~sep)], g.edges
                        stack.extend((sep | part, i + 1) for part in reversed(parts))
                assert not stack, g.edges


def outcome(g: Graph):
    try:
        return cheapest_representation(g)
    except (ValueError, BoundExceededError, BudgetExhaustedError) as exc:
        return type(exc).__name__, str(exc)


def graph_of(adj: list[int]) -> Graph:
    """The graph with these adjacency masks."""
    return Graph(len(adj), [(u, v) for u, near in enumerate(adj) for v in _members(near) if u < v])


def test_route_matches_reference_route(families, monkeypatch):
    # the reference route decomposes every graph with the set-based
    # MCS-M and lists cliques with the set-based Bron-Kerbosch, for the
    # table and for the scan. Both routes share each graph's one scan,
    # so the comparison is of the steps before it, and the cliques the
    # route hands the scan must be the reference's
    scans: dict = {}
    handed: dict = {"route": [], "reference": []}  # (adj, cliques) per scan
    real_scan = recognition._scan

    def shared_scan(cliques, adj, deadline):
        key = (tuple(cliques), tuple(adj))
        if key not in scans:
            try:
                scans[key] = real_scan(cliques, adj, time.monotonic() + 60.0)
            except (BoundExceededError, BudgetExhaustedError) as exc:
                scans[key] = exc
        if isinstance(scans[key], Exception):
            raise scans[key]
        return scans[key]

    def route_scan(cliques, adj, deadline):
        handed["route"].append((adj, list(cliques)))
        return shared_scan(cliques, adj, deadline)

    def reference_scan(cliques, adj, deadline):
        listed = sorted(reference_maximal_cliques(graph_of(adj)))
        handed["reference"].append((adj, listed))
        return shared_scan(listed, adj, deadline)

    monkeypatch.setattr(recognition, "_scan", route_scan)
    graphs = families["corpus"] + families["wide-chordal"] + families["random"]
    got = [outcome(g) for g in graphs]
    monkeypatch.setattr(recognition, "_one_atom_count", lambda adj, deadline: None)
    monkeypatch.setattr(
        decomposition, "_clique_minimal_separators",
        lambda g, deadline=math.inf: reference_clique_minimal_separators(g),
    )
    monkeypatch.setattr(
        recognition, "_clique_masks",
        lambda adj: map(_mask, reference_maximal_cliques(graph_of(adj))),
    )
    monkeypatch.setattr(recognition, "_scan", reference_scan)
    want = [outcome(g) for g in graphs]
    for g, a, b in zip(graphs, got, want):
        assert repr(a) == repr(b), g.edges
    assert handed["route"] == handed["reference"]


def test_route_sets_up_once_per_call(families, monkeypatch):
    # one set-up per answer: each call lists maximal cliques once at
    # most, by the maximum-cardinality search that finds g chordal and
    # never by Bron-Kerbosch then, and searches g for connectivity
    # never: a clique forest of one tree, _one_atom_count or
    # _separator_splits settles it. Every in-cap member the scan decides
    # gets is_helly_ept's certificate. Searches are counted on g itself,
    # as the lazy tree-shape set-up and HostTree's own check run them on
    # other graphs
    counts: Counter = Counter()
    current: list[Graph] = []

    def counted(name, fn):
        def call(*args):
            if name == "_clique_masks":
                counts[name] += 1
            else:  # calls on other graphs, such as tree shapes and host trees, are not g's
                counts[name] += args[0] is current[-1]
            out = fn(*args)
            if name == "_chordal_cliques":
                counts["chordal"] += out is not None
            return out
        return call

    modules = (decomposition, gates, graph_module, oracle, recognition, representation)
    names = ("_clique_masks", "is_connected", "connected_components")
    for name in names:
        fn = getattr(graph_module, name)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    monkeypatch.setattr(
        recognition, "_chordal_cliques", counted("_chordal_cliques", recognition._chordal_cliques)
    )
    scanned = []
    scan = recognition._scan

    def recorded(cliques, adj, deadline):
        rep = scan(cliques, adj, deadline)
        scanned.append(rep)
        return rep

    monkeypatch.setattr(recognition, "_scan", recorded)
    rng = random.Random(20261022)
    graphs_ = families["corpus"] + [
        h for g in families["wide-chordal"] + families["random"][:500] for h in (g, relabeled(g, rng))
    ]
    members = []
    routes: Counter = Counter()
    for g in graphs_:
        counts.clear()
        scanned.clear()
        current.append(g)
        result = outcome(g)
        assert counts["is_connected"] == counts["connected_components"] == 0, g.edges
        if counts["chordal"]:
            assert counts["_clique_masks"] == 0, g.edges
        else:
            assert counts["_clique_masks"] <= 1, g.edges
        routes["chordal" if counts["chordal"] else "not chordal", bool(scanned)] += 1
        if scanned and scanned[0] is not None:
            assert result.certificate is None or result.certificate is scanned[0], g.edges
            members.append((g, scanned[0]))
    for g, rep in members:
        assert representation_to_text(rep) == representation_to_text(is_helly_ept(g)), g.edges
    # (route, whether the scan answered): the rest are disconnected
    # inputs, side test, atom test and pendant filter answers, stars and
    # clique-bound refusals
    assert routes == {
        ("chordal", True): 926,
        ("chordal", False): 656,
        ("not chordal", True): 400,
        ("not chordal", False): 1580,
    }
    assert len(members) == 1326

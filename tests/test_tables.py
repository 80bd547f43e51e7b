"""The shipped gate, corpus and tree-shape tables against the
generators in reference.py that produce them."""

import itertools
import pathlib

import pytest

from eptkit import _tables, gates, graphs, oracle
from eptkit.gates import enumerate_gates
from eptkit.graphs import BoundExceededError, is_connected
from eptkit.oracle import small_graph_corpus, tree_shapes
from reference import reference_catalog, reference_corpus, reference_tree_shapes, tables_module_text

REGENERATE = (
    "regenerate the tables with `PYTHONPATH=src python tests/reference.py`, "
    "which writes reference.tables_module_text() to src/eptkit/_tables.py"
)


def test_tables_module_is_the_generated_text():
    shipped = pathlib.Path(_tables.__file__).read_text()
    assert shipped == tables_module_text(), f"src/eptkit/_tables.py is stale: {REGENERATE}"


@pytest.mark.parametrize("m", range(gates.CATALOG_VERTEX_BOUND + 1))
def test_gate_table_matches_the_catalog_search(m):
    # forms, recipes and insertion order
    got = list(enumerate_gates(m).items())
    want = list(reference_catalog(m).items())
    assert got == want, f"enumerate_gates({m}) differs from reference_catalog({m}): {REGENERATE}"


@pytest.mark.parametrize("n", range(oracle.CORPUS_VERTEX_BOUND + 1))
def test_corpus_table_matches_the_corpus_search(n):
    every = [g for g, _ in reference_corpus(n)]
    for connected_only, want in ((False, every), (True, [g for g in every if is_connected(g)])):
        got = small_graph_corpus(n, connected_only=connected_only)
        assert [(g.n, g.edges) for g in got] == [(g.n, g.edges) for g in want], (
            f"small_graph_corpus({n}, connected_only={connected_only}) differs from "
            f"reference_corpus({n}): {REGENERATE}"
        )


@pytest.mark.parametrize("m", range(oracle.CLIQUE_BOUND + 1))
def test_shape_table_matches_the_shape_generator(m):
    # order, labelling, paths and orbit masks
    got, want = tree_shapes(m), reference_tree_shapes(m)
    message = f"tree_shapes({m}) differs from reference_tree_shapes({m}): {REGENERATE}"
    assert [s.edges for s in got] == [r.edges for r in want], message
    for s, r in zip(got, want):
        pairs = itertools.combinations(range(r.n), 2)
        assert s.paths == {r.path_mask[a][b]: (a, b) for a, b in pairs}, message
        assert {mask: s.path(mask) for mask in s.paths} == r.paths, message
        assert s.host_tree().max_degree() == r.max_degree, message
        assert s.orbit_masks == r.orbit_masks(), message


def test_shape_table_refuses_counts_it_does_not_hold():
    with pytest.raises(BoundExceededError, match="tree shapes limited to 9 edges, asked for 10"):
        tree_shapes(10)
    with pytest.raises(TypeError):
        tree_shapes(2.5)


def test_tables_read_true_as_one_in_either_order():
    # lines are matched on their parsed size, so True reads those of 1,
    # with int sizes, whichever call fills a cache entry first
    for read, cache in ((small_graph_corpus, oracle._corpus), (tree_shapes, tree_shapes)):
        cache.cache_clear()
        want = [(x.n, x.edges) for x in read(1)]
        assert len(want) == 1
        for order in ((True, 1), (1, True)):
            cache.cache_clear()
            for count in order:
                got = read(count)
                assert [(x.n, x.edges) for x in got] == want, (read.__name__, order, count)
                assert all(type(x.n) is int for x in got)


def test_tables_need_no_canonical_search(monkeypatch):
    def refuse(adj):
        raise AssertionError("canonical search called")

    search = graphs._canonical_search
    for module in (graphs, gates, oracle):
        for name, value in list(vars(module).items()):
            if value is search:
                monkeypatch.setattr(module, name, refuse)
    gates._catalog.cache_clear()
    oracle._corpus.cache_clear()
    tree_shapes.cache_clear()
    assert len(enumerate_gates(12)) == 203
    assert len(small_graph_corpus(7)) == 1044
    assert len(tree_shapes(9)) == 106

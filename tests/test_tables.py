"""The shipped gate and corpus tables against the canonical-search
generators in reference.py that produce them."""

import pathlib

import pytest

from eptkit import _tables, gates, graphs, oracle
from eptkit.gates import enumerate_gates
from eptkit.graphs import is_connected
from eptkit.oracle import small_graph_corpus
from reference import reference_catalog, reference_corpus, tables_module_text

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
    assert len(enumerate_gates(12)) == 203
    assert len(small_graph_corpus(7)) == 1044

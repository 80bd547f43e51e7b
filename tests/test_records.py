"""The result records: value equality and hashing, their repr, their
defaults and their immutability; EptRepresentation's validation; and a
package import that loads no dataclasses module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eptkit
from eptkit.decomposition import AtomLeaf, CliqueDecomposition, SeparatorNode
from eptkit.gates import ExtensionStep, GateRecipe, LabeledGate, build_gate
from eptkit.graphs import Graph
from eptkit.recognition import RecognitionResult, SideWitness
from eptkit.representation import (
    ClawClique,
    EdgeClique,
    EptRepresentation,
    HostTree,
    MultipieWitness,
    PieWitness,
)

P2 = Graph(2, [(0, 1)])
STEP = ExtensionStep(0, 3, 2)
RECIPE = GateRecipe(4, (STEP,))
STAR = HostTree(3, [(0, 1), (0, 2)])
REP = EptRepresentation(STAR, ((1, 0), (0, 2), (1, 0, 2)))
LEAF = AtomLeaf((0, 1), P2)
NODE = SeparatorNode((1,), (LEAF, AtomLeaf((1, 2), P2)))

# (record, an equal copy built apart, one that differs, its repr)
RECORDS = [
    (STEP, ExtensionStep(0, 3, 2), ExtensionStep(0, 3, 3),
     "ExtensionStep(clique_a=0, clique_b=3, path_len=2)"),
    (RECIPE, GateRecipe(4, (ExtensionStep(0, 3, 2),)), GateRecipe(4),
     "GateRecipe(base=4, steps=(ExtensionStep(clique_a=0, clique_b=3, path_len=2),))"),
    (LabeledGate(P2, ((0, 1),), GateRecipe(4)),
     LabeledGate(Graph(2, [(1, 0)]), ((0, 1),), GateRecipe(4)),
     LabeledGate(P2, ((0, 1),), GateRecipe(5)),
     "LabeledGate(graph=Graph(n=2, m=1), cliques=((0, 1),), recipe=GateRecipe(base=4, steps=()))"),
    (LEAF, AtomLeaf((0, 1), Graph(2, [(0, 1)])), AtomLeaf((0, 2), P2),
     "AtomLeaf(vertices=(0, 1), graph=Graph(n=2, m=1))"),
    (NODE, SeparatorNode((1,), (LEAF, AtomLeaf((1, 2), P2))), SeparatorNode((1,), (LEAF,)),
     "SeparatorNode(separator=(1,), children=(AtomLeaf(vertices=(0, 1), graph=Graph(n=2, m=1)),"
     " AtomLeaf(vertices=(1, 2), graph=Graph(n=2, m=1))))"),
    (CliqueDecomposition(P2, LEAF), CliqueDecomposition(P2, AtomLeaf((0, 1), P2)),
     CliqueDecomposition(P2, NODE),
     "CliqueDecomposition(graph=Graph(n=2, m=1),"
     " root=AtomLeaf(vertices=(0, 1), graph=Graph(n=2, m=1)))"),
    (SideWitness((0, 1), ((2,), (3,), (4,)), ((0, 1),) * 3),
     SideWitness((0, 1), ((2,), (3,), (4,)), ((0, 1),) * 3),
     SideWitness((0, 1), ((2,), (3,), (5,)), ((0, 1),) * 3),
     "SideWitness(clique=(0, 1), components=((2,), (3,), (4,)),"
     " attachments=((0, 1), (0, 1), (0, 1)))"),
    (RecognitionResult(True, 2, REP), RecognitionResult(True, 2, REP, None, None),
     RecognitionResult(True, 3, REP),
     "RecognitionResult(helly_ept=True, h=2, certificate=EptRepresentation(tree=HostTree(3,"
     " [(0, 1), (0, 2)]), paths=((1, 0), (0, 2), (1, 0, 2))), obstruction=None, side_witness=None)"),
    (EdgeClique((0, 1)), EdgeClique((0, 1)), EdgeClique((0, 2)), "EdgeClique(edge=(0, 1))"),
    (ClawClique(0, (1, 2, 3)), ClawClique(0, (1, 2, 3)), ClawClique(1, (0, 2, 3)),
     "ClawClique(center=0, ends=(1, 2, 3))"),
    (PieWitness(0, (1, 2, 3, 4), (5, 6, 7, 8)), PieWitness(0, (1, 2, 3, 4), (5, 6, 7, 8)),
     PieWitness(0, (1, 2, 3, 4), (5, 6, 8, 7)),
     "PieWitness(center=0, spoke_ends=(1, 2, 3, 4), cycle=(5, 6, 7, 8))"),
    (MultipieWitness(0, (1, 2), ((5, (1, 2)),)), MultipieWitness(0, (1, 2), ((5, (1, 2)),)),
     MultipieWitness(0, (1, 2), ((6, (1, 2)),)),
     "MultipieWitness(center=0, spoke_ends=(1, 2), members=((5, (1, 2)),))"),
    (REP, EptRepresentation(HostTree(3, [(0, 2), (1, 0)]), ((1, 0), (0, 2), (1, 0, 2))),
     EptRepresentation(STAR, ((0, 1), (0, 2), (1, 0, 2))),
     "EptRepresentation(tree=HostTree(3, [(0, 1), (0, 2)]), paths=((1, 0), (0, 2), (1, 0, 2)))"),
]


@pytest.mark.parametrize(
    "record, same, other, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_contract(record, same, other, text):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other
    assert repr(record) == text
    assert len({record, same, other}) == 2
    for field in getattr(record, "_fields", ("tree", "paths")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_record_defaults():
    assert GateRecipe(4).steps == ()
    result = RecognitionResult(False, None, None)
    assert (result.obstruction, result.side_witness) == (None, None)


def test_named_tuple_records_unpack_and_compare_as_tuples():
    a, b, length = STEP
    assert (a, b, length) == (0, 3, 2) == STEP
    verdict, h, certificate, obstruction, witness = RecognitionResult(True, 2, REP)
    assert (verdict, h, certificate, obstruction, witness) == (True, 2, REP, None, None)
    assert RECIPE.clique_count() == 5 and RECIPE.vertex_count() == 6
    assert build_gate(RECIPE).recipe == RECIPE
    assert CliqueDecomposition(P2, NODE).leaves() == list(NODE.children)


def test_representation_is_not_a_tuple():
    # equal only to another representation, never to a (tree, paths) pair
    assert REP != (REP.tree, REP.paths)
    assert REP.__eq__((REP.tree, REP.paths)) is NotImplemented


@pytest.mark.parametrize("tree, paths, message", [
    (STAR, ((1, 0), ()), "path of vertex 1 is empty"),
    (STAR, ((1, 0, 1),), "path of vertex 0 repeats a tree vertex"),
    (STAR, ((0, 1), (0, 3)), "path of vertex 1 leaves the tree: 3"),
    (STAR, ((0, 1), (-1,)), "path of vertex 1 leaves the tree: -1"),
    (STAR, ((1, 2),), r"path of vertex 0 uses non-edge \(1, 2\)"),
])
def test_representation_validation_messages(tree, paths, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EptRepresentation(tree, paths)


def test_representation_indexes_survive_the_assignment_guard():
    rep = EptRepresentation(HostTree(4, [(0, 1), (1, 2), (2, 3)]), ((0, 1, 2), (2, 3)))
    assert rep.path_edge_sets == (frozenset({(0, 1), (1, 2)}), frozenset({(2, 3)}))
    assert rep.path_edge_sets is rep.path_edge_sets
    assert rep._edge_holders == {(0, 1): (0,), (1, 2): (0,), (2, 3): (1,)}
    assert rep == EptRepresentation(HostTree(4, [(0, 1), (1, 2), (2, 3)]), ((0, 1, 2), (2, 3)))


@pytest.mark.parametrize("module", ["eptkit", "eptkit.cli"])
def test_import_loads_no_dataclasses(module):
    # a fresh eptkit process compiles and imports what the package
    # imports, and dataclasses costs it about 20 ms
    src = str(Path(eptkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = f"import sys, {module}; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


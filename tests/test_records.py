"""The result records: value equality and hashing, their repr, their
defaults and their immutability; EptRepresentation's validation; a
package import that loads no dataclasses module and no submodule; the
modules each command loads; and the package's lazily resolved names."""

import contextlib
import importlib
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import eptkit
from eptkit import cli, graphs, oracle
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


def run_fresh(code: str, *args: str, stdin: str = "") -> str:
    """stdout of code run with args in a fresh interpreter that imports
    eptkit from this checkout."""
    src = str(Path(eptkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, input=stdin, capture_output=True, text=True, check=True,
    )
    return out.stdout


@pytest.mark.parametrize("module", ["eptkit", "eptkit.cli"])
def test_import_loads_no_dataclasses(module):
    # a fresh eptkit process compiles and imports what the package
    # imports, and dataclasses costs it about 20 ms
    probe = f"import sys, {module}; print('dataclasses' in sys.modules)"
    assert run_fresh(probe) == "False\n"


def test_import_loads_no_submodule():
    probe = "import sys, eptkit; print(sorted(m for m in sys.modules if 'eptkit' in m))"
    assert run_fresh(probe) == "['eptkit']\n"


# runs `python -m eptkit.cli <args>` and prints, after its output, the
# exit code and the eptkit modules it loaded as the last line
RUN_CLI = """\
import json, runpy, sys
try:
    runpy.run_module("eptkit.cli", run_name="__main__")
except SystemExit as exit:
    code = exit.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("eptkit."))]))
"""

LIBRARY = {"eptkit.decomposition", "eptkit.oracle", "eptkit.recognition", "eptkit.representation"}


@pytest.mark.parametrize("args, first_line, unloaded", [
    (["catalog", "--max", "4"], "gate 0: n=4 k=4 base 4", LIBRARY),
    (["gen-gate", "--base", "4"], "# gate: base cycle 4", LIBRARY),
    (["atoms", "-"], "separator: 1", LIBRARY - {"eptkit.decomposition"}),
], ids=["catalog", "gen-gate", "atoms"])
def test_command_loads_only_its_modules(args, first_line, unloaded):
    out = run_fresh(RUN_CLI, *args, stdin="3 2\n0 1\n1 2\n").splitlines()
    code, loaded = json.loads(out[-1])
    assert code == 0 and out[0] == first_line
    assert "eptkit.graphs" in loaded and not unloaded & set(loaded)


# prints the --help text of each argument list in argv[1] and the
# eptkit modules loaded after them
HELP_PROBE = """\
import contextlib, io, json, sys
from eptkit import cli
texts = []
for args in json.loads(sys.argv[1]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        try:
            cli.main([*args, "--help"])
        except SystemExit:
            texts.append(text.getvalue())
print(json.dumps([texts, sorted(m for m in sys.modules if m.startswith("eptkit."))]))
"""


def test_help_reads_no_library_module(monkeypatch):
    # building the parser reads no module but graphs, so every help
    # text is the same in a fresh process as in one that loaded them all
    monkeypatch.setenv("COLUMNS", "80")
    commands = ["recognize", "cheapest", "atoms", "gen-gate", "catalog", "oracle",
                "verify-rep", "corpus"]
    argvs = [[]] + [[c] for c in commands]
    texts, loaded = json.loads(run_fresh(HELP_PROBE, json.dumps(argvs)))
    assert loaded == ["eptkit.cli", "eptkit.graphs"]
    assert len(texts) == len(argvs)
    for args, fresh in zip(argvs, texts):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
            cli.main([*args, "--help"])
        assert text.getvalue() == fresh, args


def test_public_names_are_their_modules_objects():
    for name in eptkit.__all__:
        value = getattr(eptkit, name)
        assert value.__module__.startswith("eptkit."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(eptkit.__all__) <= set(dir(eptkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        eptkit.no_such_name


def test_budget_error_is_one_class():
    assert eptkit.BudgetExhaustedError is oracle.BudgetExhaustedError is graphs.BudgetExhaustedError
    error = pickle.loads(pickle.dumps(graphs.BudgetExhaustedError("budget exhausted")))
    assert type(error) is graphs.BudgetExhaustedError and error.args == ("budget exhausted",)

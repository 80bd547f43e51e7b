"""Command-line interface: verdict lines, exit codes, file round trips,
and the names the benchmark tracer wraps."""

import ast
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from eptkit import cli
from eptkit.cli import main
from eptkit.graphs import (
    PARSE_VERTEX_BOUND,
    Graph,
    complete_graph,
    cycle_graph,
    graph_to_text,
    parse_graph,
    path_graph,
)
from eptkit.recognition import RecognitionResult
from eptkit.representation import (
    clique_star,
    is_helly,
    max_host_degree,
    parse_representation,
    representation_to_text,
    verify,
)
from test_recognition import W09

S3_TEXT = """\
6 9
0 2
0 3
1 3
1 5
2 3
2 4
2 5
3 5
4 5
"""

TWO_C5S_TEXT = """\
8 9
0 1
0 4
0 5
1 2
1 7
2 3
3 4
5 6
6 7
"""


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text(graph_to_text(cycle_graph(5)))
    return str(p)


@pytest.fixture
def s3_file(tmp_path):
    p = tmp_path / "s3.txt"
    p.write_text(S3_TEXT)
    return str(p)


def stdin_of(text: str | bytes) -> io.TextIOWrapper:
    """A stdin holding text, read as bytes through its buffer like the
    real one."""
    return io.TextIOWrapper(io.BytesIO(text if isinstance(text, bytes) else text.encode()))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_recognize_member(capsys, c5_file):
    code, out, err = run(capsys, "recognize", c5_file)
    assert (code, out) == (0, "helly-ept h=5\n")
    assert err == ""


def test_recognize_with_bound(capsys, c5_file):
    code, out, _ = run(capsys, "recognize", c5_file, "--h", "5")
    assert (code, out) == (0, "member\n")
    code, out, _ = run(capsys, "recognize", c5_file, "--h", "4")
    assert (code, out) == (1, "not-member\n")


@pytest.mark.parametrize("h", ["1", "-3"])
def test_recognize_h_below_two(capsys, tmp_path, h):
    # K3 lies on a one-edge host, so "not-member" would be wrong; the
    # bound is refused before the graph is read, even a missing one
    k3 = tmp_path / "k3.txt"
    k3.write_text(graph_to_text(complete_graph(3)))
    for path in (str(k3), str(tmp_path / "missing.txt")):
        code, out, err = run(capsys, "recognize", path, "--h", h)
        assert (code, out) == (2, "")
        assert "membership test requires h >= 2" in err


def test_recognize_non_member(capsys, s3_file):
    code, out, _ = run(capsys, "recognize", s3_file)
    assert (code, out) == (1, "not-helly-ept\n")
    code, out, _ = run(capsys, "recognize", s3_file, "--h", "4")
    assert (code, out) == (1, "not-helly-ept\n")


@pytest.mark.parametrize("command", ["recognize", "cheapest"])
def test_recognize_stdin(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", stdin_of(graph_to_text(cycle_graph(4))))
    code, out, _ = run(capsys, command, "-")
    assert (code, out) == (0, "helly-ept h=4\n")


@pytest.mark.parametrize("command", ["recognize", "cheapest"])
def test_recognize_disconnected(capsys, tmp_path, command):
    p = tmp_path / "two.txt"
    p.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (0, "helly-ept h=2\n")
    assert "disconnected" in err


@pytest.mark.parametrize("command", ["recognize", "cheapest"])
def test_recognize_writes_certificate(capsys, tmp_path, c5_file, command):
    cert = tmp_path / "cert.txt"
    code, _, _ = run(capsys, command, c5_file, "--output", str(cert))
    assert code == 0
    rep = parse_representation(cert.read_text())
    assert verify(rep, cycle_graph(5)) == (True, None)


@pytest.mark.parametrize("command", ["recognize", "cheapest"])
def test_output_note_without_certificate(capsys, tmp_path, command):
    # w09's cheapest h is 3, but its only certificate needs degree 4
    w09 = tmp_path / "w09.txt"
    w09.write_text(graph_to_text(W09))
    two = tmp_path / "two.txt"
    two.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    cert = tmp_path / "cert.txt"
    code, out, err = run(capsys, command, str(w09), "--output", str(cert))
    assert (code, out) == (0, "helly-ept h=3\n")
    assert "note: no certificate written: the one found has host degree above h=3" in err
    code, out, err = run(capsys, command, str(two), "--output", str(cert))
    assert (code, out) == (0, "helly-ept h=2\n")
    assert "note: no certificate written: disconnected input" in err
    assert not cert.exists()


def test_cheapest(capsys, tmp_path, c5_file, s3_file):
    code, out, _ = run(capsys, "cheapest", c5_file)
    assert (code, out) == (0, "helly-ept h=5\n")
    code, out, _ = run(capsys, "cheapest", s3_file)
    assert (code, out) == (1, "not-helly-ept\n")
    p = tmp_path / "twoc5.txt"
    p.write_text(TWO_C5S_TEXT)
    code, out, _ = run(capsys, "cheapest", str(p))
    assert (code, out) == (0, "helly-ept h=5\n")


def test_atoms_text(capsys, tmp_path):
    p = tmp_path / "twotri.txt"
    p.write_text("4 5\n0 1\n0 2\n1 2\n0 3\n1 3\n")
    code, out, _ = run(capsys, "atoms", str(p))
    assert code == 0
    assert out.startswith("separator: 0 1\n  atom: 0 1 2\n  atom: 0 1 3\n")
    assert "# atom 0: vertices 0 1 2" in out
    assert "# atom 1: vertices 0 1 3" in out
    # atom blocks re-parse as graphs
    blocks = out.split("\n\n")
    for block in blocks[1:]:
        g = parse_graph(block)
        assert g.n == 3 and len(g.edges) == 3


def test_atoms_dot(capsys, c5_file):
    code, out, _ = run(capsys, "atoms", c5_file, "--format", "dot")
    assert code == 0
    assert out.startswith("graph decomposition")
    assert 'label="atom 0 1 2 3 4"' in out


def test_atoms_of_long_path(capsys, tmp_path):
    p = tmp_path / "p900.txt"
    p.write_text(graph_to_text(path_graph(900)))
    code, out, _ = run(capsys, "atoms", str(p))
    assert code == 0
    assert out.startswith("separator: 1\n  atom: 0 1\n  separator: 2\n")
    assert out.count("# atom ") == 899
    code, out, _ = run(capsys, "atoms", str(p), "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 899 + 898 - 1


def test_gen_gate(capsys):
    code, out, _ = run(capsys, "gen-gate", "--base", "4", "--extend", "0,3,2")
    assert code == 0
    assert "# gate: base cycle 4" in out
    assert "# extend: cliques 0,3 path 2" in out
    assert "# cliques: 0 1 4; 0 3; 1 2; 2 3 5; 4 5" in out
    g = parse_graph(out)
    assert g.n == 6 and len(g.edges) == 9


def test_gen_gate_dot(capsys):
    code, out, _ = run(capsys, "gen-gate", "--base", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")


def test_gen_gate_errors(capsys):
    code, _, err = run(capsys, "gen-gate", "--base", "3")
    assert code == 2 and "at least 4" in err
    code, _, err = run(capsys, "gen-gate", "--base", "4", "--extend", "0,1")
    assert code == 2 and "want A,B,L" in err
    code, _, err = run(capsys, "gen-gate", "--base", "4", "--extend", "0,1,2")
    assert code == 2 and "not disjoint" in err
    # int() reads each of these as 0,3,2
    for spec in ("0,3,0_2", "0,3,+2", "0,3,٢", "0, 3,2"):
        code, out, err = run(capsys, "gen-gate", "--base", "4", "--extend", spec)
        assert (code, out) == (2, "") and "want A,B,L" in err, spec
        # a command-line argument has no line to name
        assert "line" not in err, spec


def test_each_input_error_names_its_own_line(capsys, monkeypatch, tmp_path):
    graph, rep = tmp_path / "g.txt", tmp_path / "rep.txt"
    # a byte that is not UTF-8, in a file and on stdin
    graph.write_bytes(b"2 1\n0 \xff1\n")
    code, out, err = run(capsys, "cheapest", str(graph))
    assert (code, out) == (2, "") and "line 2: byte 0xff is not UTF-8" in err
    monkeypatch.setattr("sys.stdin", stdin_of(b"2 1\n0 \xff1\n"))
    code, out, err = run(capsys, "cheapest", "-")
    assert (code, out) == (2, "") and "line 2: byte 0xff is not UTF-8" in err
    graph.write_bytes(b"3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "cheapest", str(graph))
    assert (code, out) == (0, "helly-ept h=2\n")
    # a bad path that is not the last line, and a bad byte in a path
    rep.write_bytes(b"3 2\n0 1\n1 2\n0 : 0 2\n1 : 0 1\n2 : 1 2\n")
    code, out, err = run(capsys, "verify-rep", str(graph), str(rep))
    assert (code, out) == (2, "") and "line 4: path of vertex 0 uses non-edge (0, 2)" in err
    rep.write_bytes(b"3 2\n0 1\n1 2\n0 : 0 1\n1 : 0 \xff1\n2 : 1 2\n")
    code, out, err = run(capsys, "verify-rep", str(graph), str(rep))
    assert (code, out) == (2, "") and "line 5: byte 0xff is not UTF-8" in err
    rep.write_bytes(b"3 2\n0 1\n1 2\n0 : 0 1\n1 : 0 1 2\n2 : 1 2\n")
    code, out, _ = run(capsys, "verify-rep", str(graph), str(rep))
    assert code == 0 and out.startswith("ok helly=true degree=2\n")


def test_malformed_numbers_name_their_line(capsys, tmp_path):
    graph, rep = tmp_path / "g.txt", tmp_path / "rep.txt"
    graph.write_text("11 1\n0 1_0\n")
    code, out, err = run(capsys, "cheapest", str(graph))
    assert (code, out) == (2, "") and "line 2" in err
    graph.write_text("2 1\n0 1\n")
    rep.write_text("2 1\n0 1\n0 : 0 1\n1 : 0 1\u00b2\n")
    code, out, err = run(capsys, "verify-rep", str(graph), str(rep))
    assert (code, out) == (2, "") and "line 4" in err and "invalid literal" not in err
    rep.write_text("2 1\n0 1\n0 : 0 1\n1 : 0 1\n")
    code, out, _ = run(capsys, "verify-rep", str(graph), str(rep))
    assert code == 0 and out.startswith("ok helly=true degree=1\n")


def test_gen_gate_over_vertex_bound(capsys):
    # 4 + 9997 vertices: refused before anything is built
    code, out, err = run(capsys, "gen-gate", "--base", "4", "--extend", "0,3,9997")
    assert (code, out) == (3, "")
    assert "limited to 10000 vertices" in err


def test_catalog(capsys, tmp_path):
    out_dir = tmp_path / "gates"
    code, out, _ = run(capsys, "catalog", "--max", "6", "--output", str(out_dir))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gate 0: n=4 k=4 base 4"
    assert lines[1] == "gate 1: n=5 k=5 base 5"
    assert lines[2] == "gate 2: n=6 k=6 base 6"
    assert lines[3] == "gate 3: n=6 k=5 base 4 extend 0,3,2"
    files = sorted(out_dir.iterdir())
    assert [f.name for f in files] == [
        "gate_000.txt", "gate_001.txt", "gate_002.txt", "gate_003.txt",
    ]
    assert parse_graph(files[0].read_text()) == cycle_graph(4)
    assert parse_graph(files[3].read_text()).n == 6


def test_catalog_prints_from_recipes(capsys, monkeypatch):
    # gates are built only to write their files; the catalog is read
    # from the shipped table and builds none
    def refuse(recipe):
        raise AssertionError("build_gate called")

    monkeypatch.setattr("eptkit.gates.build_gate", refuse)
    code, out, _ = run(capsys, "catalog", "--max", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[9] == "gate 9: n=8 k=6 base 4 extend 0,3,2 0,3,2"


def test_closed_pipe_exits_141_quietly(tmp_path):
    # the reader takes one line and closes the pipe while most of the
    # 150 KB listing, more than a pipe holds, is still to be written
    n = 4000
    g = cycle_graph(n)
    (tmp_path / "g.txt").write_text(graph_to_text(g))
    (tmp_path / "rep.txt").write_text(representation_to_text(clique_star(n, sorted(g.edges))))
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "eptkit.cli", "verify-rep", "g.txt", "rep.txt"],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"ok helly=true degree=4000\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_catalog_over_bound(capsys):
    code, _, err = run(capsys, "catalog", "--max", "13")
    assert code == 3 and "12 vertices" in err


def test_oracle_round_trip(capsys, tmp_path, c5_file):
    rep_file = tmp_path / "rep.txt"
    code, _, _ = run(capsys, "oracle", c5_file, "--output", str(rep_file))
    assert code == 0
    code, out, _ = run(capsys, "verify-rep", c5_file, str(rep_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok helly=true degree=5"
    assert len(lines) == 6
    assert all("edge-clique" in line for line in lines[1:])


def test_oracle_none(capsys, s3_file):
    code, out, _ = run(capsys, "oracle", s3_file)
    assert (code, out) == (1, "none\n")


def test_oracle_has_no_degree_option(capsys, c5_file):
    # the scan's tree degree is verify-rep's degree=, and membership in
    # Helly [h,2,2] is recognize --h
    with pytest.raises(SystemExit) as exc:
        main(["oracle", c5_file, "--max-degree", "3"])
    assert exc.value.code == 2
    assert "--max-degree" in capsys.readouterr().err


def test_oracle_budget_exhausted(capsys, tmp_path):
    p = tmp_path / "twoc5.txt"
    # a relabeled copy; nothing is kept between runs, so any labeling
    # runs the scan
    g = parse_graph(TWO_C5S_TEXT)
    perm = [3, 0, 6, 1, 7, 2, 5, 4]
    shuffled = Graph(8, [(perm[u], perm[v]) for u, v in g.edges])
    p.write_text(graph_to_text(shuffled))
    code, out, _ = run(capsys, "oracle", str(p), "--budget-secs", "1e-9")
    assert (code, out) == (3, "budget-exhausted\n")


def test_oracle_nan_budget(capsys, tmp_path):
    g = parse_graph(TWO_C5S_TEXT)
    perm = [6, 4, 2, 0, 7, 5, 3, 1]
    p = tmp_path / "twoc5c.txt"
    p.write_text(graph_to_text(Graph(8, [(perm[u], perm[v]) for u, v in g.edges])))
    code, out, err = run(capsys, "oracle", str(p), "--budget-secs", "nan")
    assert (code, out) == (2, "")
    assert "budget must be a non-negative number of seconds, got nan" in err


def test_budget_ignores_the_environment(capsys, c5_file, monkeypatch):
    # the default budget is a fixed 60 s, whatever the environment holds
    monkeypatch.setenv("EPTKIT_BUDGET_SECS", "nan")
    code, out, _ = run(capsys, "cheapest", c5_file)
    assert (code, out) == (0, "helly-ept h=5\n")


def test_components_share_the_budget(capsys, monkeypatch):
    budgets = []

    def record(g, budget_secs):
        budgets.append(budget_secs)
        return RecognitionResult(True, 2, None)

    monkeypatch.setattr("eptkit.recognition.cheapest_representation", record)
    # read once before the first component and once before each one
    clock = iter([10.0, 10.0, 11.0, 13.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    three_edges = graph_to_text(Graph(6, [(0, 1), (2, 3), (4, 5)]))
    monkeypatch.setattr("sys.stdin", stdin_of(three_edges))
    code, out, _ = run(capsys, "cheapest", "-", "--budget-secs", "2.5")
    assert (code, out) == (0, "helly-ept h=2\n")
    assert budgets == [2.5, 1.5, 0.0]
    # a connected input gets the whole budget
    budgets.clear()
    monkeypatch.setattr("sys.stdin", stdin_of(graph_to_text(path_graph(3))))
    code, out, _ = run(capsys, "cheapest", "-", "--budget-secs", "7")
    assert (code, out) == (0, "helly-ept h=2\n")
    assert budgets == [7.0]


def test_nan_budget_before_the_atom_test(capsys, monkeypatch):
    # K_{3,4} is answered by the atom test, which never runs the scan
    k34 = graph_to_text(Graph(7, [(a, b) for a in range(3) for b in range(3, 7)]))
    monkeypatch.setattr("sys.stdin", stdin_of(k34))
    code, out, err = run(capsys, "recognize", "-", "--budget-secs", "nan")
    assert (code, out) == (2, "")
    assert "got nan" in err


def test_verify_rep_claw_report(capsys, tmp_path, s3_file):
    rep = tmp_path / "s3rep.txt"
    rep.write_text(
        "7 6\n0 1\n0 2\n0 3\n1 4\n2 5\n3 6\n"
        "0 : 0 2 5\n1 : 0 3 6\n2 : 1 0 2\n3 : 2 0 3\n4 : 0 1 4\n5 : 3 0 1\n"
    )
    code, out, _ = run(capsys, "verify-rep", s3_file, str(rep))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok helly=false degree=3"
    assert "clique 2 3 5: claw-clique center 0 ends 1,2,3" in lines
    assert sum("edge-clique" in line for line in lines) == 3


def test_verify_rep_single_vertex_paths(capsys, tmp_path):
    graph = tmp_path / "two.txt"
    graph.write_text("2 0\n")
    rep = tmp_path / "points.txt"
    rep.write_text("2 1\n0 1\n0 : 0\n1 : 1\n")
    code, out, _ = run(capsys, "verify-rep", str(graph), str(rep))
    assert (code, out.splitlines()) == (0, [
        "ok helly=false degree=1",
        "clique 0: single-vertex path, no edge",
        "clique 1: single-vertex path, no edge",
    ])


def test_verify_rep_mismatch(capsys, tmp_path, c5_file):
    rep = tmp_path / "bad.txt"
    rep.write_text(
        "6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n"
        "0 : 1 0 2\n1 : 2 0 3\n2 : 3 0 4\n3 : 4 0 5\n4 : 5 0 2\n"
    )
    code, out, _ = run(capsys, "verify-rep", c5_file, str(rep))
    assert code == 1
    assert out.startswith("mismatch: vertices ")


def test_corpus(capsys):
    code, out, _ = run(capsys, "corpus", "--n", "4")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 11
    graphs = {parse_graph(b) for b in blocks}
    assert len(graphs) == 11
    code, out, _ = run(capsys, "corpus", "--n", "4", "--connected")
    assert len(out.split("\n\n")) == 6


def test_corpus_over_bound(capsys):
    code, _, err = run(capsys, "corpus", "--n", "9")
    assert code == 3 and "7 vertices" in err


def test_negative_vertex_counts_are_input_errors(capsys):
    for args in [("catalog", "--max", "-1"), ("corpus", "--n", "-1")]:
        code, out, err = run(capsys, *args)
        assert code == 2 and out == "", args
        assert "vertex count must be non-negative" in err, args


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "recognize", str(tmp_path / "missing.txt"))
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "recognize", str(bad))
    assert code == 2 and "self-loop" in err
    # K_{3,4} has 12 cliques but one atom that is not line-like, so the
    # atom test answers before the clique bound is reached
    k34 = tmp_path / "k34.txt"
    k34.write_text(graph_to_text(Graph(7, [(a, b) for a in range(3) for b in range(3, 7)])))
    code, out, _ = run(capsys, "recognize", str(k34))
    assert (code, out) == (1, "not-helly-ept\n")
    # C10 with a pendant vertex has 11 cliques, 2 of them separating, and
    # no vertex in three that separate nothing, so it reaches the scan's
    # bound
    big = tmp_path / "c10_pendant.txt"
    big.write_text(graph_to_text(Graph(11, list(cycle_graph(10).edges) + [(0, 10)])))
    code, _, err = run(capsys, "recognize", str(big))
    assert code == 3 and "cliques" in err


def test_cycle_past_the_clique_bound(capsys, tmp_path):
    # no maximal clique of C10 separates it, so its star answers without
    # the scan and its 9-clique bound
    c10 = tmp_path / "c10.txt"
    c10.write_text(graph_to_text(cycle_graph(10)))
    rep_file = tmp_path / "rep.txt"
    code, out, _ = run(capsys, "recognize", str(c10), "--output", str(rep_file))
    assert (code, out) == (0, "helly-ept h=10\n")
    code, out, _ = run(capsys, "verify-rep", str(c10), str(rep_file))
    assert code == 0 and out.startswith("ok helly=true degree=10\n")


def test_oversized_header(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text(f"{PARSE_VERTEX_BOUND + 1} 0\n")
    for command in ("recognize", "atoms"):
        code, _, err = run(capsys, command, str(big))
        assert code == 2 and "line 1" in err and "limited to" in err


def test_emitted_representation_round_trip(capsys, tmp_path, c5_file):
    rep_file = tmp_path / "rep.txt"
    run(capsys, "oracle", c5_file, "--output", str(rep_file))
    text = rep_file.read_text()
    rep = parse_representation(text)
    assert verify(rep, cycle_graph(5)) == (True, None)
    assert is_helly(rep)[0]
    assert max_host_degree(rep) == 5
    assert representation_to_text(rep) == text


def test_benchmark_span_targets_resolve():
    # perfbench/run.py --trace 1 wraps every (module, attr) in the
    # tracer's TARGETS; read from the file so no perfbench code runs
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text()
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    for name, (module, attr) in targets.items():
        assert hasattr(importlib.import_module(module), attr), name
    # Tracer.install reads the canonical cache's hit counts, so a traced
    # run fails without the lru_cache around canonical_labeling
    module, attr = targets["graphs.canonical_labeling"]
    assert callable(getattr(importlib.import_module(module), attr).cache_info)

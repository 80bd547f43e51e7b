"""Generate the benchmark's committed inputs and reference answers.

Run once from the repository root, with networkx installed:

    python3 perfbench/gen_inputs.py

It writes perfbench/data/. The benchmark run itself reads those files
and needs only the standard library. Inputs come from sources
independent of eptkit (networkx's graph atlas, the stdlib clique-tree
generator in wide_chordal.py). Reference verdicts and h were computed
once with the eptkit of the commit that added the benchmark and are
cross-checked here against networkx and against the counts the
acceptance suite pins (587 members, 11 excluded, the gate catalog
shape). Later versions of eptkit are checked against these frozen
answers, never against themselves.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import networkx as nx

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from eptkit import (  # noqa: E402
    Graph,
    cheapest_representation,
    enumerate_gates,
    build_gate,
)
from wide_chordal import clique_tree  # noqa: E402

CLIQUE_CAP = 9
BUDGET_SECS = 600.0
WIDE_GEN_SEED = 11
WIDE_PER_CLASS = 8
# Exhaustive non-member proofs on 7 or 8 cliques take up to 3 s and swing
# 10x with the labelling; they would turn wide-chordal into a second,
# noisier oracle workload. corpus7 measures those proofs.
WIDE_NONMEMBER_MAX_CLIQUES = 6
WIDE_COMPLETE = range(10, 15)


def edges_text(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(edges))


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def reference(n: int, edges, g_nx: nx.Graph) -> tuple[str, str]:
    """Verdict and h for one graph, with h = 2 cross-checked against
    networkx's interval test (chordal and AT-free)."""
    result = cheapest_representation(Graph(n, edges), budget_secs=BUDGET_SECS)
    if not result.helly_ept:
        return "nonmember", "-"
    interval = nx.is_chordal(g_nx) and nx.is_at_free(g_nx)
    if (result.h == 2) != interval:
        raise SystemExit(f"h={result.h} disagrees with networkx interval={interval}")
    return "member", str(result.h)


def gen_corpus7() -> None:
    atlas = [
        (i, g) for i, g in enumerate(nx.graph_atlas_g())
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    ]
    assert len(atlas) == 996, len(atlas)
    graph_lines = ["# id n cliques edges (id: a<networkx atlas index>)"]
    ref_lines = ["# id verdict h"]
    verdicts: Counter = Counter()
    for idx, g in atlas:
        n = g.number_of_nodes()
        edges = [(min(u, v), max(u, v)) for u, v in g.edges()]
        m = sum(1 for _ in nx.find_cliques(g))
        gid = f"a{idx:04d}"
        if m > CLIQUE_CAP:
            verdict, h = "excluded", "-"
        else:
            verdict, h = reference(n, edges, g)
        verdicts[verdict] += 1
        graph_lines.append(f"{gid} {n} {m} {edges_text(edges)}".rstrip())
        ref_lines.append(f"{gid} {verdict} {h}")
    assert verdicts == {"member": 587, "nonmember": 398, "excluded": 11}, verdicts
    (DATA / "corpus7.txt").write_text("\n".join(graph_lines) + "\n")
    (DATA / "corpus7.ref").write_text("\n".join(ref_lines) + "\n")


def gen_wide_chordal() -> list[tuple[str, int, list]]:
    rng = random.Random(WIDE_GEN_SEED)
    picked: dict[str, list] = {"2": [], "3": [], "-": []}
    while any(len(v) < WIDE_PER_CLASS for v in picked.values()):
        n, edges = clique_tree(rng)
        g_nx = nx_graph(n, edges)
        assert nx.is_chordal(g_nx)
        m = sum(1 for _ in nx.find_cliques(g_nx))
        verdict, h = reference(n, edges, g_nx)
        if verdict == "nonmember" and m > WIDE_NONMEMBER_MAX_CLIQUES:
            continue
        if len(picked[h]) < WIDE_PER_CLASS:
            picked[h].append((n, m, edges, verdict, h))
    rows = [row for cls in ("2", "3", "-") for row in picked[cls]]
    for n in WIDE_COMPLETE:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rows.append((n, 1, edges, *reference(n, edges, nx_graph(n, edges))))
    graph_lines = ["# id n cliques edges"]
    ref_lines = ["# id verdict h"]
    out = []
    for k, (n, m, edges, verdict, h) in enumerate(rows):
        gid = f"K{n}" if m == 1 else f"w{k:02d}"
        graph_lines.append(f"{gid} {n} {m} {edges_text(edges)}")
        ref_lines.append(f"{gid} {verdict} {h}")
        out.append((gid, n, edges))
    (DATA / "wide_chordal.txt").write_text("\n".join(graph_lines) + "\n")
    (DATA / "wide_chordal.ref").write_text("\n".join(ref_lines) + "\n")
    return out


def gen_gates12() -> None:
    catalog = enumerate_gates(12)
    seen: list[nx.Graph] = []
    shape: Counter = Counter()
    for recipe in catalog.values():
        gate = build_gate(recipe)
        g_nx = nx_graph(gate.graph.n, gate.graph.edges)
        cliques = [set(c) for c in nx.find_cliques(g_nx)]
        k = recipe.clique_count()
        assert len(cliques) == k
        for v in g_nx:
            holding = [c for c in cliques if v in c]
            assert len(holding) == 2 and holding[0] & holding[1] == {v}
        assert not any(nx.is_isomorphic(g_nx, other) for other in seen)
        seen.append(g_nx)
        shape[(gate.graph.n, k)] += 1
    by_k = Counter()
    for (_, k), c in shape.items():
        by_k[k] += c
    assert len(catalog) == 203 and {k: by_k[k] for k in (4, 5, 6)} == {4: 1, 5: 2, 6: 4}
    ref = {
        "total": len(catalog),
        "by_clique_count": {str(k): by_k[k] for k in sorted(by_k)},
        "by_vertices_and_cliques": [[n, k, c] for (n, k), c in sorted(shape.items())],
    }
    (DATA / "gates12.ref.json").write_text(json.dumps(ref, indent=1) + "\n")


def gen_cli(wide: list[tuple[str, int, list]]) -> None:
    cli_dir = DATA / "cli"
    cli_dir.mkdir(exist_ok=True)

    def put(name: str, n: int, edges) -> str:
        edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        (cli_dir / name).write_text(text)
        return f"perfbench/data/cli/{name}"

    cycles = {n: put(f"c{n}.txt", n, [(i, (i + 1) % n) for i in range(n)]) for n in range(4, 9)}
    s3 = put("s3.txt", 6, [(2, 3), (3, 5), (2, 5), (0, 2), (0, 3), (1, 3), (1, 5), (2, 4), (4, 5)])
    gid, n, edges = next(w for w in wide if w[0].startswith("w") and 18 <= w[1] <= 24)
    atoms_graph = put(f"wide_{gid}.txt", n, edges)
    budget = ["--budget-secs", "@budget"]
    units = [[{"name": f"cheapest-c{n}", "args": ["cheapest", cycles[n], *budget],
               "stdout": f"helly-ept h={n}\n", "exit": 0}] for n in range(4, 9)]
    units += [
        [{"name": "recognize-c5-h4", "args": ["recognize", cycles[5], "--h", "4", *budget],
          "stdout": "not-member\n", "exit": 1}],
        [{"name": "recognize-s3-h3", "args": ["recognize", s3, "--h", "3", *budget],
          "stdout": "not-helly-ept\n", "exit": 1}],
        [{"name": "oracle-c6", "args": ["oracle", cycles[6], *budget]},
         {"name": "verify-rep-c6", "args": ["verify-rep", cycles[6], "-"], "stdin_from": "oracle-c6"}],
        [{"name": f"atoms-{gid}", "args": ["atoms", atoms_graph]}],
        [{"name": "gen-gate-4", "args": ["gen-gate", "--base", "4", "--extend", "0,3,2"]}],
        [{"name": "catalog-10", "args": ["catalog", "--max", "10"]}],
        [{"name": "catalog-12", "args": ["catalog", "--max", "12"]}],
        [{"name": "corpus-6", "args": ["corpus", "--n", "6"]}],
    ]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    outputs: dict[str, str] = {}
    for unit in units:
        for inv in unit:
            stdin = outputs[inv["stdin_from"]] if "stdin_from" in inv else None
            args = ["60" if a == "@budget" else a for a in inv["args"]]
            proc = subprocess.run(
                [sys.executable, "-m", "eptkit.cli", *args],
                input=stdin, capture_output=True, text=True, cwd=ROOT, env=env,
            )
            if "stdout" in inv:
                assert (proc.stdout, proc.returncode) == (inv["stdout"], inv["exit"]), (inv, proc)
            inv["stdout"], inv["exit"] = proc.stdout, proc.returncode
            outputs[inv["name"]] = proc.stdout
    # independent cross-checks of the outputs captured above
    assert outputs["verify-rep-c6"].startswith("ok helly=true degree=6\n")
    catalog_lines = outputs["catalog-12"].splitlines()
    assert len(catalog_lines) == 203
    assert len(outputs["catalog-10"].splitlines()) == sum(
        c for n, _, c in json.loads((DATA / "gates12.ref.json").read_text())["by_vertices_and_cliques"] if n <= 10
    )
    atlas6 = sum(1 for g in nx.graph_atlas_g() if g.number_of_nodes() == 6)
    assert outputs["corpus-6"].count("\n\n") + 1 == atlas6 == 156
    (DATA / "cli_script.json").write_text(json.dumps(units, indent=1) + "\n")


def main() -> None:
    DATA.mkdir(exist_ok=True)
    gen_gates12()
    wide = gen_wide_chordal()
    gen_cli(wide)
    gen_corpus7()


if __name__ == "__main__":
    main()

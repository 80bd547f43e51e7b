"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next operation
starts when the previous one has returned. `items(seed, passes)`
yields the seeded input stream pass by pass, and `run(item)` performs
the operations of one item and checks their answers against the
committed references in data/. Only the calls into eptkit are timed; preparing
inputs and checking answers are not.

Inputs that reach the oracle are never repeated as labelled graphs
within a run: eptkit's scan cache is keyed by the labelled graph, and a
repeat would be answered from it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from eptkit import gates, recognition, representation
from eptkit.graphs import BoundExceededError, Graph
from eptkit.oracle import BudgetExhaustedError, tree_shapes

DATA = Path(__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parent.parent
MAX_CLIQUES = 9
CATALOG_VERTICES = 12
# corpus7 runs one graph in CORPUS7_SAMPLE_EVERY of every (verdict,
# clique count, h) stratum
CORPUS7_SAMPLE_EVERY = 3
RELABEL_TRIES = 50
CLI_TIMEOUT_SECS = 150

# UNCERTIFIED: a right verdict and h from a member answer that carries no
# certificate, which cheapest_representation documents as possible;
# counted and reported, not failed
OK, UNCERTIFIED, FAILED, WRONG = "ok", "uncertified", "failed", "wrong"


class Record:
    """One committed input graph with its reference answer."""

    __slots__ = ("gid", "n", "cliques", "edges", "verdict", "h")

    def __init__(self, line: str, refs: dict) -> None:
        gid, n, cliques, *edges = line.split()
        self.gid, self.n, self.cliques = gid, int(n), int(cliques)
        self.edges = [tuple(map(int, e.split("-"))) for e in edges]
        self.verdict, self.h = refs[gid]

    @property
    def stratum(self) -> tuple:
        return (self.verdict, self.cliques, self.h)


def load_graphs(name: str) -> list[Record]:
    """The graphs of data/<name>.txt with the answers of data/<name>.ref."""
    refs = {}
    for line in (DATA / f"{name}.ref").read_text().splitlines():
        if not line.startswith("#"):
            gid, verdict, h = line.split()
            refs[gid] = (verdict, None if h == "-" else int(h))
    return [
        Record(line, refs)
        for line in (DATA / f"{name}.txt").read_text().splitlines()
        if not line.startswith("#")
    ]


def interleave(strata: dict, rng: random.Random) -> list:
    """Seeded order in which every stratum is spread evenly, so that any
    prefix of the order holds each stratum in about its full share."""
    keyed = []
    for key in sorted(strata, key=repr):
        members = list(strata[key])
        rng.shuffle(members)
        offset = rng.random()
        keyed.extend(((j + offset) / len(members), rng.random(), x) for j, x in enumerate(members))
    keyed.sort(key=lambda t: t[:2])
    return [x for *_, x in keyed]


class Relabeller:
    """Seeded vertex relabelling that never hands out the same labelled
    graph twice in one run; None when no unused labelling turns up."""

    def __init__(self) -> None:
        self.seen: set = set()

    def __call__(self, rec: Record, rng: random.Random) -> Graph | None:
        perm = list(range(rec.n))
        for _ in range(RELABEL_TRIES):
            rng.shuffle(perm)
            edges = frozenset(
                (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                for u, v in rec.edges
            )
            if (rec.n, edges) not in self.seen:
                self.seen.add((rec.n, edges))
                return Graph(rec.n, edges)
        return None


class Workload:
    """A run makes a whole number of passes over the workload's inputs,
    so every run of one length holds the same mix of inputs and its
    percentiles sit at the same ranks. `pass_s` is about the time one
    pass took at the commit that added the benchmark (2-CPU x86-64 VM,
    Python 3.11); a run of `seconds` makes round(seconds / pass_s)
    passes, at least one."""

    name = ""
    pass_s = 1.0
    # whether the timed work runs in fresh processes (see speed.py)
    spawns = False

    def __init__(self, budget: float, tracer=None) -> None:
        self.budget = budget
        self.tracer = tracer
        self.setup_error = ""

    def setup(self) -> None:
        """The lazy set-up every in-process workload needs first."""
        for m in range(1, MAX_CLIQUES + 1):
            tree_shapes(m)

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recognition(Workload):
    """One operation is one cheapest_representation verdict on a graph
    from a fixed list; each pass relabels the list afresh."""

    def graphs(self) -> list[Record]:
        raise NotImplementedError

    def items(self, seed: int, passes: int):
        rng = random.Random(f"{self.name}/{seed}")
        relabel = Relabeller()
        strata = defaultdict(list)
        for rec in self.graphs():
            strata[rec.stratum].append(rec)
        for _ in range(passes):
            fresh = 0
            for rec in interleave(strata, rng):
                g = relabel(rec, rng)
                if g is not None:
                    fresh += 1
                    yield rec, g
            if not fresh:
                return

    def run(self, item) -> list[tuple[float, str, str]]:
        rec, g = item
        t0 = time.perf_counter()
        try:
            result = recognition.cheapest_representation(g, budget_secs=self.budget)
        except (BudgetExhaustedError, BoundExceededError) as exc:
            return [(time.perf_counter() - t0, FAILED, f"{rec.gid}: {exc!r}")]
        except Exception as exc:  # a crash is a wrong answer; keep measuring
            return [(time.perf_counter() - t0, WRONG, f"{rec.gid}: {exc!r}")]
        latency = time.perf_counter() - t0
        return [(latency, *check_recognition(result, g, rec))]


def check_recognition(result, g: Graph, rec: Record) -> tuple[str, str]:
    if rec.verdict == "nonmember":
        if result.helly_ept:
            return WRONG, f"{rec.gid}: member h={result.h}, expected non-member"
        return OK, ""
    if not result.helly_ept or result.h != rec.h:
        return WRONG, f"{rec.gid}: helly_ept={result.helly_ept} h={result.h}, expected h={rec.h}"
    cert = result.certificate
    if cert is None:
        return UNCERTIFIED, rec.gid
    if representation.verify(cert, g) != (True, None):
        return WRONG, f"{rec.gid}: certificate fails verify"
    if not representation.is_helly(cert)[0]:
        return WRONG, f"{rec.gid}: certificate is not Helly"
    if representation.max_host_degree(cert) > rec.h:
        return WRONG, f"{rec.gid}: certificate host degree above h={rec.h}"
    return OK, ""


class Corpus7(Recognition):
    """Connected graphs on at most 7 vertices within the 9-clique cap,
    sampled systematically from every (verdict, clique count, h)
    stratum."""

    name = "corpus7"
    pass_s = 27.0

    def graphs(self) -> list[Record]:
        strata = defaultdict(list)
        for rec in load_graphs("corpus7"):
            if rec.verdict != "excluded":
                strata[rec.stratum].append(rec)
        subset = []
        for members in strata.values():
            k = max(1, round(len(members) / CORPUS7_SAMPLE_EVERY))
            step = len(members) / k
            subset.extend(members[int((j + 0.5) * step)] for j in range(k))
        return subset


class WideChordal(Recognition):
    """Clique trees with 17-46 vertices, each twice per pass under
    different relabellings, plus K_10..K_14. Every relabelling of K_n is
    K_n itself, so each complete graph runs once per run."""

    name = "wide-chordal"
    pass_s = 2.5

    def graphs(self) -> list[Record]:
        return [rec for rec in load_graphs("wide_chordal") for _ in range(2)]


class Gates12(Workload):
    """The characterization route over the catalog of gates with at
    most 12 vertices. One operation is one gate check: build the gate,
    certify it (star representation, verify, is_helly, multipie), then
    search a relabelled copy for an induced gate with more than k-1
    cliques (expected) and more than k cliques (not expected). The
    oracle never runs here, so repeated labellings of small gates only
    meet the canonical-form cache, which this workload exercises."""

    name = "gates12"
    pass_s = 8.0

    def setup(self) -> None:
        super().setup()
        catalog = gates.enumerate_gates(CATALOG_VERTICES)
        ref = json.loads((DATA / "gates12.ref.json").read_text())
        shape = defaultdict(int)
        for recipe in catalog.values():
            shape[(recipe.vertex_count(), recipe.clique_count())] += 1
        got = [[n, k, c] for (n, k), c in sorted(shape.items())]
        if len(catalog) != ref["total"] or got != ref["by_vertices_and_cliques"]:
            self.setup_error = (
                f"gate catalog has {len(catalog)} gates by (n, k) {got}, expected "
                f"{ref['total']} by {ref['by_vertices_and_cliques']}")
        self.recipes = list(catalog.values())

    def items(self, seed: int, passes: int):
        rng = random.Random(f"gates12/{seed}")
        strata = defaultdict(list)
        for recipe in self.recipes:
            strata[recipe.vertex_count()].append(recipe)
        for _ in range(passes):
            for recipe in interleave(strata, rng):
                perm = list(range(recipe.vertex_count()))
                rng.shuffle(perm)
                yield recipe, perm

    def run(self, item) -> list[tuple[float, str, str]]:
        recipe, perm = item
        k = recipe.clique_count()
        label = f"gate {recipe}"
        t0 = time.perf_counter()
        try:
            gate = gates.build_gate(recipe)
            rep = representation.star_representation(gate)
            verified = representation.verify(rep, gate.graph)
            helly = representation.is_helly(rep)
            multipie = representation.find_multipie(rep, tuple(range(gate.graph.n)), k)
            latency = time.perf_counter() - t0
            g = Graph(gate.graph.n, [(perm[u], perm[v]) for u, v in gate.graph.edges])
            t1 = time.perf_counter()
            witness = gates.contains_gate_ge(g, k - 1)
            beyond = gates.contains_gate_ge(g, k)
            latency += time.perf_counter() - t1
        except Exception as exc:  # a crash is a wrong answer; keep measuring
            return [(time.perf_counter() - t0, WRONG, f"{label}: {exc!r}")]
        if verified != (True, None) or helly != (True, None):
            return [(latency, WRONG, f"{label}: star representation {verified} {helly}")]
        if representation.max_host_degree(rep) != k or len(multipie.spoke_ends) != k:
            return [(latency, WRONG, f"{label}: host degree or multipie size is not {k}")]
        if witness is None or witness[1].clique_count() < k:
            return [(latency, WRONG, f"{label}: no induced gate with at least {k} cliques")]
        if beyond is not None:
            return [(latency, WRONG, f"{label}: induced gate with more than {k} cliques")]
        return [(latency, OK, "")]


class Cli(Workload):
    """A fixed script of fresh `eptkit` processes in seeded order, one
    process at a time. One operation is one invocation; the oracle ->
    verify-rep round trip stays together. Every process pays import and
    lazy set-up, so the parent process sets nothing up."""

    name = "cli"
    pass_s = 4.5
    spawns = True

    def __init__(self, budget: float, tracer=None) -> None:
        super().__init__(budget, tracer)
        self.units = json.loads((DATA / "cli_script.json").read_text())
        for unit in self.units:
            for inv in unit:
                inv["args"] = [str(budget) if a == "@budget" else a for a in inv["args"]]
        self.process_s: dict[str, list[float]] = defaultdict(list)

    def setup(self) -> None:
        pass

    def items(self, seed: int, passes: int):
        rng = random.Random(f"cli/{seed}")
        for _ in range(passes):
            order = list(self.units)
            rng.shuffle(order)
            yield from order

    def _invoke(self, inv: dict, stdin: str | None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "eptkit.cli", *inv["args"]],
            input=stdin, capture_output=True, text=True, cwd=ROOT,
            env=os.environ, timeout=CLI_TIMEOUT_SECS,
        )

    def run(self, unit) -> list[tuple[float, str, str]]:
        results = []
        outputs: dict[str, str] = {}
        for inv in unit:
            stdin = outputs.get(inv.get("stdin_from", ""))
            sub = inv["args"][0]
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    proc = self.tracer.span(f"cli.{sub}", self._invoke, inv, stdin)
                else:
                    proc = self._invoke(inv, stdin)
            except subprocess.TimeoutExpired:
                results.append((time.perf_counter() - t0, FAILED, f"{inv['name']}: timed out"))
                continue
            latency = time.perf_counter() - t0
            self.process_s[sub].append(latency)
            outputs[inv["name"]] = proc.stdout
            if (proc.stdout, proc.returncode) != (inv["stdout"], inv["exit"]):
                results.append((latency, WRONG, (
                    f"{inv['name']}: exit {proc.returncode} stdout {proc.stdout[:80]!r}"
                    f" stderr {proc.stderr[-200:]!r}")))
            else:
                results.append((latency, OK, ""))
        return results

    def peak_rss_mb(self) -> float:
        """The largest eptkit child process waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Corpus7, WideChordal, Gates12, Cli)}

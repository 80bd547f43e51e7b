"""Command-line front end.

Subcommands: recognize, cheapest, atoms, gen-gate, catalog, oracle,
verify-rep, corpus. Outputs are plain line-oriented text (DOT where
offered is additive). Exit codes: 0 success or member, 1 non-member or
failed check, 2 input error, 3 bound or budget exceeded, 141 closed pipe.

Disconnected inputs to recognize/cheapest are handled per connected
component with the maximum degree reported; the library pipeline
itself requires connected graphs, so this is flagged on stderr.

Only graphs is imported here; each command imports the modules it runs,
so a fresh process loads, and without bytecode compiles, no others.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .graphs import (
    BoundExceededError,
    BudgetExhaustedError,
    Graph,
    GraphParseError,
    connected_components,
    graph_to_dot,
    graph_to_text,
    induced_subgraph,
    parse_graph,
    _read_naturals,
    _utf8_text,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_PIPE = 141  # what a shell reports for a process ended by SIGPIPE


def _read_text(path: str) -> str:
    """The file at path, or stdin for '-', read as bytes and decoded by
    the parsers' UTF-8 rule, whatever the locale."""
    return _utf8_text(sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes())


def _emit(payload: str, output: str | None) -> None:
    if output:
        Path(output).write_text(payload)
    else:
        sys.stdout.write(payload)


def _component_results(g: Graph, budget: float | None):
    """One result per connected component; the budget holds for all of
    them together, each component getting what the earlier ones left."""
    from . import oracle, recognition

    budget = oracle.resolve_budget_secs(budget)
    comps = connected_components(g)
    if len(comps) <= 1:  # Graph(0) has none and counts as connected
        return [recognition.cheapest_representation(g, budget_secs=budget)]
    print(
        "warning: disconnected input, reporting the maximum over components",
        file=sys.stderr,
    )
    start = time.monotonic()
    results = []
    for comp in comps:
        sub, _ = induced_subgraph(g, comp)
        left = max(0.0, budget - (time.monotonic() - start))
        results.append(recognition.cheapest_representation(sub, budget_secs=left))
    return results


def _cmd_recognize(args) -> int:
    """recognize and cheapest; cheapest is recognize without --h."""
    from . import representation

    if args.h is not None and args.h < 2:
        raise ValueError("membership test requires h >= 2")
    g = parse_graph(_read_text(args.file))
    results = _component_results(g, args.budget_secs)
    if not all(r.helly_ept for r in results):
        print("not-helly-ept")
        return EXIT_NO
    h = max(r.h for r in results)
    if args.output:
        if len(results) != 1:
            print("note: no certificate written: disconnected input", file=sys.stderr)
        elif results[0].certificate is None:
            print(
                f"note: no certificate written: the one found has host degree above h={h}",
                file=sys.stderr,
            )
        else:
            Path(args.output).write_text(
                representation.representation_to_text(results[0].certificate)
            )
    if args.h is not None:
        if h <= args.h:
            print("member")
            return EXIT_OK
        print("not-member")
        return EXIT_NO
    print(f"helly-ept h={h}")
    return EXIT_OK


def _cmd_atoms(args) -> int:
    from . import decomposition

    g = parse_graph(_read_text(args.file))
    tree = decomposition.decomposition_tree(g)
    if args.format == "dot":
        _emit(decomposition.tree_to_dot(tree), args.output)
        return EXIT_OK
    blocks = [decomposition.tree_to_text(tree)]
    for i, leaf in enumerate(tree.leaves()):
        header = f"atom {i}: vertices " + " ".join(str(v) for v in leaf.vertices)
        blocks.append(graph_to_text(leaf.graph, comments=(header,)))
    _emit("\n".join(blocks), args.output)
    return EXIT_OK


def _parse_extend(spec: str) -> tuple[int, ...]:
    """An --extend value's clique ids A, B and path length L."""
    message = f"bad extension {spec!r}, want A,B,L"
    try:
        return _read_naturals(spec.split(","), message, 1, 3)
    except GraphParseError:
        # the digit rule names a line, and an argument has none
        raise ValueError(message) from None


def _gate_comments(recipe, cliques) -> list[str]:
    lines = [f"gate: base cycle {recipe.base}"]
    lines.extend(
        f"extend: cliques {s.clique_a},{s.clique_b} path {s.path_len}"
        for s in recipe.steps
    )
    lines.append(
        "cliques: " + "; ".join(" ".join(map(str, c)) for c in cliques)
    )
    return lines


def _cmd_gen_gate(args) -> int:
    from . import gates

    steps = tuple(gates.ExtensionStep(*_parse_extend(s)) for s in args.extend)
    gate = gates.build_gate(gates.GateRecipe(args.base, steps))
    if args.format == "dot":
        _emit(graph_to_dot(gate.graph), args.output)
        return EXIT_OK
    _emit(
        graph_to_text(gate.graph, comments=_gate_comments(gate.recipe, gate.cliques)),
        args.output,
    )
    return EXIT_OK


def _cmd_catalog(args) -> int:
    from . import gates

    catalog = gates.enumerate_gates(
        gates.CATALOG_VERTEX_BOUND if args.max is None else args.max
    )
    out_dir = Path(args.output) if args.output else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for i, recipe in enumerate(catalog.values()):
        steps = " ".join(
            f"{s.clique_a},{s.clique_b},{s.path_len}" for s in recipe.steps
        )
        suffix = f" extend {steps}" if steps else ""
        print(
            f"gate {i}: n={recipe.vertex_count()} k={recipe.clique_count()}"
            f" base {recipe.base}{suffix}"
        )
        if out_dir:
            gate = gates.build_gate(recipe)
            path = out_dir / f"gate_{i:03d}.txt"
            path.write_text(
                graph_to_text(gate.graph, comments=_gate_comments(recipe, gate.cliques))
            )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from . import oracle, representation

    g = parse_graph(_read_text(args.file))
    rep = oracle.oracle_membership(g, budget_secs=args.budget_secs)
    if rep is None:
        print("none")
        return EXIT_NO
    _emit(representation.representation_to_text(rep), args.output)
    return EXIT_OK


def _cmd_verify_rep(args) -> int:
    from . import representation

    g = parse_graph(_read_text(args.graph))
    rep = representation.parse_representation(_read_text(args.rep))
    ok, why = representation.verify(rep, g)
    if not ok:
        print(f"mismatch: {why}")
        return EXIT_NO
    # is_helly's test, read off the listing printed below so it runs once
    witnesses = representation.clique_witnesses(rep)
    helly = all(isinstance(w, representation.EdgeClique) for _, w in witnesses)
    degree = representation.max_host_degree(rep)
    print(f"ok helly={'true' if helly else 'false'} degree={degree}")
    for c, witness in witnesses:
        members = " ".join(str(v) for v in c)
        if witness is None:
            print(f"clique {members}: single-vertex path, no edge")
        elif isinstance(witness, representation.EdgeClique):
            a, b = witness.edge
            print(f"clique {members}: edge-clique ({a},{b})")
        else:
            ends = ",".join(str(q) for q in witness.ends)
            print(f"clique {members}: claw-clique center {witness.center} ends {ends}")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from . import oracle

    blocks = [
        graph_to_text(g)
        for g in oracle.small_graph_corpus(args.n, connected_only=args.connected)
    ]
    _emit("\n".join(blocks), args.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eptkit",
        description="Recognition and cheapest host-degree tools for Helly "
        "edge-intersection graphs of tree paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget-secs", type=float, default=None,
                       help="wall-clock search budget in seconds (default 60)")

    p = sub.add_parser("recognize", help="decide Helly [h,2,2] membership")
    p.add_argument("file", help="graph file, - for stdin")
    p.add_argument("--h", type=int, default=None, help="degree bound to test")
    p.add_argument("--output", default=None, help="write certificate here")
    add_budget(p)
    p.set_defaults(run=_cmd_recognize)

    p = sub.add_parser("cheapest", help="minimum h with the graph in Helly [h,2,2]")
    p.add_argument("file")
    p.add_argument("--output", default=None, help="write certificate here")
    add_budget(p)
    p.set_defaults(run=_cmd_recognize, h=None)

    p = sub.add_parser("atoms", help="clique-separator decomposition")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_atoms)

    p = sub.add_parser("gen-gate", help="build a gate from its recipe")
    p.add_argument("--base", type=int, required=True, help="base cycle length")
    p.add_argument("--extend", action="append", default=[], metavar="A,B,L",
                   help="extension step: clique ids A,B and path length L")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_gen_gate)

    p = sub.add_parser("catalog", help="all gates up to a vertex bound")
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--output", default=None, help="directory for one file per gate")
    p.set_defaults(run=_cmd_catalog)

    p = sub.add_parser("oracle", help="exhaustive Helly representation search")
    p.add_argument("file")
    p.add_argument("--output", default=None)
    add_budget(p)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("verify-rep", help="check a representation against a graph")
    p.add_argument("graph")
    p.add_argument("rep")
    p.set_defaults(run=_cmd_verify_rep)

    p = sub.add_parser("corpus", help="all graphs with n vertices up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is flushed at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BudgetExhaustedError:
        print("budget-exhausted")
        return EXIT_BOUND
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

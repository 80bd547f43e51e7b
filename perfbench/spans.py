"""Per-layer tracing from outside the program.

Wrappers are installed on the names that eptkit's modules import from
each other (for example `recognition.oracle_membership`,
`decomposition.induced_subgraph`, `gates.is_gate`), so every call that
crosses a module boundary opens a span. Spans are aggregated as they
close, per name: call count and self time (the span's duration minus
the time its child spans cover). Aggregating in place keeps memory flat
on workloads with millions of small calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# metric prefix -> (defining module, function name)
TARGETS = {
    "graphs.enumerate_maximal_cliques": ("eptkit.graphs", "enumerate_maximal_cliques"),
    "graphs.canonical_labeling": ("eptkit.graphs", "canonical_labeling"),
    "graphs.induced_subgraph": ("eptkit.graphs", "induced_subgraph"),
    "decomposition.atoms": ("eptkit.decomposition", "atoms"),
    "decomposition.find_clique_separator": ("eptkit.decomposition", "find_clique_separator"),
    "oracle.tree_shapes": ("eptkit.oracle", "tree_shapes"),
    "oracle.membership": ("eptkit.oracle", "oracle_membership"),
    "recognition.cheapest_representation": ("eptkit.recognition", "cheapest_representation"),
    "recognition.is_helly_ept": ("eptkit.recognition", "is_helly_ept"),
    "recognition.is_interval": ("eptkit.recognition", "is_interval"),
    "gates.enumerate_gates": ("eptkit.gates", "enumerate_gates"),
    "gates.build_gate": ("eptkit.gates", "build_gate"),
    "gates.contains_gate_ge": ("eptkit.gates", "contains_gate_ge"),
    "gates.is_gate": ("eptkit.gates", "is_gate"),
    "representation.star_representation": ("eptkit.representation", "star_representation"),
    "representation.verify": ("eptkit.representation", "verify"),
    "representation.is_helly": ("eptkit.representation", "is_helly"),
    "representation.find_multipie": ("eptkit.representation", "find_multipie"),
}

MAX_CLIQUES = 9


class Tracer:
    """Span aggregator. `top_s` sums the durations of spans opened with
    no span around them, which the caller compares with wall time."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.children: Counter = Counter()  # (parent, child) -> calls
        self.events: Counter = Counter()
        self.top_s = 0.0
        self._stack: list[list] = []  # [name, time covered by children]
        self._originals: dict = {}

    def _close(self, name: str, parent: str | None, t0: float, t1: float, covered: float) -> None:
        self.calls[name] += 1
        self.self_s[name] += t1 - t0 - covered
        if parent is not None:
            self.children[(parent, name)] += 1
        # time spent labelling the span counts as tracer overhead, not
        # as the parent's own work
        total = time.perf_counter() - t0
        if self._stack:
            self._stack[-1][1] += total
        else:
            self.top_s += total

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn, labeler):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            outcome = None
            t0 = perf()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                t1 = perf()
                stack.pop()
                label = labeler(args, outcome) if labeler else name
                self._close(label, parent, t0, t1, frame[1])

        return wrapper

    def install(self) -> None:
        """Replace every eptkit module attribute that is one of the
        target functions with its traced wrapper."""
        import eptkit.cli  # noqa: F401  (load every consumer module)

        labelers = {
            "oracle.membership": self._label_membership,
            "gates.is_gate": self._count_outcome("gates.is_gate", "gates.is_gate.hits"),
            "decomposition.find_clique_separator": self._count_outcome(
                "decomposition.find_clique_separator", "decomposition.separators_found"),
        }
        replace = {}
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            self._originals[name] = original
            replace[id(original)] = self._wrap(name, original, labelers.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "eptkit" and not modname.startswith("eptkit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self._canon_start = self._originals["graphs.canonical_labeling"].cache_info()

    def _count_outcome(self, name: str, event: str):
        def label(args, outcome) -> str:
            if outcome is not None and not isinstance(outcome, Exception):
                self.events[event] += 1
            return name
        return label

    def _label_membership(self, args, outcome) -> str:
        from eptkit.oracle import BudgetExhaustedError

        if isinstance(outcome, BudgetExhaustedError):
            self.events["oracle.budget_exhausted"] += 1
            return "oracle.membership.exhausted"
        if isinstance(outcome, Exception):
            return "oracle.membership.error"
        g = args[0]
        m = len(self._originals["graphs.enumerate_maximal_cliques"](g))
        shapes = self._originals["oracle.tree_shapes"](m) if m else ()
        if outcome is None:
            self.events["oracle.shapes_tried"] += len(shapes)
            return f"oracle.membership.nonmember.m{m}"
        edges = tuple(outcome.tree.edges)
        index = next(i for i, s in enumerate(shapes) if s.edges == edges) if m else 0
        self.events["oracle.shapes_tried"] += index + 1
        self.events["oracle.members"] += 1
        return f"oracle.membership.member.m{m}"

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except the cli and overhead ones, as
        name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def both(name: str) -> None:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")

        both("graphs.enumerate_maximal_cliques")
        both("graphs.canonical_labeling")
        info = self._originals["graphs.canonical_labeling"].cache_info()
        hits = info.hits - self._canon_start.hits
        misses = info.misses - self._canon_start.misses
        out["graphs.canonical_labeling.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        both("graphs.induced_subgraph")
        both("decomposition.atoms")
        both("decomposition.find_clique_separator")
        candidates = self.children[
            ("decomposition.find_clique_separator", "graphs.induced_subgraph")]
        out["decomposition.candidates_per_separator"] = (
            _ratio(candidates, self.events["decomposition.separators_found"]), "count")
        out["oracle.tree_shapes.self_s"] = (self.self_s["oracle.tree_shapes"], "s")
        for verdict in ("member", "nonmember"):
            for m in range(1, MAX_CLIQUES + 1):
                both(f"oracle.membership.{verdict}.m{m}")
        out["oracle.shapes_tried"] = (self.events["oracle.shapes_tried"], "count")
        out["oracle.shape_accept_ratio"] = (
            _ratio(self.events["oracle.members"], self.events["oracle.shapes_tried"]), "ratio")
        out["oracle.budget_exhausted"] = (self.events["oracle.budget_exhausted"], "count")
        both("recognition.cheapest_representation")
        out["recognition.is_helly_ept.self_s"] = (self.self_s["recognition.is_helly_ept"], "s")
        both("recognition.is_interval")
        out["gates.enumerate_gates.self_s"] = (self.self_s["gates.enumerate_gates"], "s")
        both("gates.build_gate")
        both("gates.contains_gate_ge")
        out["gates.is_gate.calls"] = (self.calls["gates.is_gate"], "count")
        out["gates.is_gate.hit_ratio"] = (
            _ratio(self.events["gates.is_gate.hits"], self.calls["gates.is_gate"]), "ratio")
        for fn in ("star_representation", "verify", "is_helly", "find_multipie"):
            out[f"representation.{fn}.self_s"] = (self.self_s[f"representation.{fn}"], "s")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

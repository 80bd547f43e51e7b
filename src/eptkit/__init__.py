"""Recognition and cheapest-representation toolkit for Helly
edge-intersection graphs of paths in bounded-degree trees.

Each public name is imported from its defining module on first use, so
`import eptkit` loads no submodule and a process compiles only the
modules it reads.
"""

import importlib

# public name -> defining module
_MODULES = {
    "AtomLeaf": "decomposition",
    "BoundExceededError": "graphs",
    "BudgetExhaustedError": "graphs",
    "ClawClique": "representation",
    "CliqueDecomposition": "decomposition",
    "EdgeClique": "representation",
    "EptRepresentation": "representation",
    "ExtensionStep": "gates",
    "GateRecipe": "gates",
    "Graph": "graphs",
    "GraphParseError": "graphs",
    "HostTree": "representation",
    "LabeledGate": "gates",
    "MultipieWitness": "representation",
    "PieWitness": "representation",
    "RecognitionResult": "recognition",
    "SeparatorNode": "decomposition",
    "SideWitness": "recognition",
    "atoms": "decomposition",
    "build_gate": "gates",
    "canonical_form": "graphs",
    "canonical_labeling": "graphs",
    "cheapest_representation": "recognition",
    "check_two_clique_property": "gates",
    "classify_clique": "representation",
    "clique_of_claw": "representation",
    "clique_of_edge": "representation",
    "clique_star": "representation",
    "clique_witnesses": "representation",
    "complete_graph": "graphs",
    "connected_components": "graphs",
    "contains_gate_ge": "gates",
    "cycle_graph": "graphs",
    "decomposition_tree": "decomposition",
    "edge_intersection_graph": "representation",
    "enumerate_gates": "gates",
    "enumerate_maximal_cliques": "graphs",
    "find_claw_violation": "representation",
    "find_clique_separator": "decomposition",
    "find_multipie": "representation",
    "find_pie": "representation",
    "graph_to_dot": "graphs",
    "graph_to_text": "graphs",
    "has_asteroidal_triple": "recognition",
    "helly_h_membership": "recognition",
    "induced_subgraph": "graphs",
    "is_chordal": "recognition",
    "is_connected": "graphs",
    "is_gate": "gates",
    "is_helly": "representation",
    "is_helly_ept": "recognition",
    "is_interval": "recognition",
    "isomorphism": "graphs",
    "max_host_degree": "representation",
    "oracle_membership": "oracle",
    "parse_graph": "graphs",
    "parse_representation": "representation",
    "path_graph": "graphs",
    "representation_to_dot": "representation",
    "representation_to_text": "representation",
    "rewire_gate": "gates",
    "small_graph_corpus": "oracle",
    "star_representation": "representation",
    "tree_shapes": "oracle",
    "verify": "representation",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    try:
        module = _MODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

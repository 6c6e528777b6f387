"""XOR-AND graph data structure and companion utilities."""

from repro.xag.graph import (
    FALSE,
    TRUE,
    NodeKind,
    SubstitutionResult,
    Xag,
    literal,
    lit_node,
    lit_complemented,
    lit_not,
)
from repro.xag.simulate import (
    simulate_words,
    simulate_pattern,
    simulate_assignment,
    simulate_integers,
    output_truth_tables,
    node_truth_tables,
    node_values,
)
from repro.xag.bitsim import BitSimulator, SimulationCache
from repro.xag.depth import depth, multiplicative_depth, node_levels
from repro.xag.levels import LevelCache, LevelTracker
from repro.xag.balance import BalanceStats, balance, balance_in_place
from repro.xag.cleanup import is_swept, sweep, sweep_owned, sweep_with_map
from repro.xag.structhash import (
    StructHashTracker,
    cone_hash,
    graph_hash,
    node_hashes,
)
from repro.xag.equivalence import equivalence_stimulus, equivalent
from repro.xag.serialize import to_dict, from_dict, save, load
from repro.xag.dot import to_dot

__all__ = [
    "FALSE",
    "TRUE",
    "NodeKind",
    "SubstitutionResult",
    "Xag",
    "literal",
    "lit_node",
    "lit_complemented",
    "lit_not",
    "simulate_words",
    "simulate_pattern",
    "simulate_assignment",
    "simulate_integers",
    "output_truth_tables",
    "node_truth_tables",
    "node_values",
    "BitSimulator",
    "SimulationCache",
    "equivalence_stimulus",
    "depth",
    "multiplicative_depth",
    "node_levels",
    "LevelCache",
    "LevelTracker",
    "BalanceStats",
    "balance",
    "balance_in_place",
    "StructHashTracker",
    "cone_hash",
    "graph_hash",
    "node_hashes",
    "is_swept",
    "sweep",
    "sweep_owned",
    "sweep_with_map",
    "equivalent",
    "to_dict",
    "from_dict",
    "save",
    "load",
    "to_dot",
]

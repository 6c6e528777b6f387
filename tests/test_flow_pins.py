"""Pinned results of every built-in cost model's canonical flow.

Each row holds the (ANDs, XORs, multiplicative depth, rounds) that
``cost_model_flow(name)`` reaches under "mc", "size", "mc-depth" and
"fhe", in that order, on three circuits and on the harness's seeded random
XAGs 0-9.  The rows were recorded when a round after the first examined
only the transitive fanout of the previous round's edits (a dirty-node
worklist) and matched flows whose rounds examined every gate; every round
now examines every live gate, and the rows must not move.
"""

import pytest

from repro.circuits import arithmetic as A
from repro.circuits import control as C
from repro.cuts import CutFunctionCache
from repro.mc import McDatabase
from repro.rewriting import (RewriteParams, parse_flow, run_pipeline,
                             standard_flow)
from repro.testing import seeded_xag
from repro.testing.diff import cost_model_flow, generator_knobs
from repro.xag import equivalent, multiplicative_depth

#: the order of every row's cells.
OBJECTIVES = ("mc", "size", "mc-depth", "fhe")

_CIRCUITS = {
    "int_to_float": C.int_to_float,
    "priority_encoder16": lambda: C.priority_encoder(16),
    "adder8": lambda: A.adder(8),
}

#: (ANDs, XORs, depth, rounds) per input, one cell per objective.
FLOW_PINS = {
    "int_to_float": ((70, 71, 15, 5), (71, 66, 15, 5), (70, 71, 15, 5),
                     (70, 71, 15, 5)),
    "priority_encoder16": ((75, 46, 16, 5), (75, 46, 16, 4), (75, 46, 16, 5),
                           (75, 46, 16, 5)),
    "adder8": ((8, 43, 8, 2), (22, 15, 15, 2), (8, 43, 8, 2), (8, 43, 8, 2)),
    "seed0": ((2, 5, 2, 2), (2, 4, 2, 2), (2, 4, 2, 1), (2, 4, 2, 1)),
    "seed1": ((1, 4, 1, 2), (1, 4, 1, 2), (1, 3, 1, 1), (1, 3, 1, 1)),
    "seed2": ((0, 0, 0, 2), (0, 0, 0, 2), (0, 0, 0, 1), (0, 0, 0, 1)),
    "seed3": ((12, 14, 7, 2), (12, 13, 7, 3), (11, 14, 7, 3), (11, 14, 7, 3)),
    "seed4": ((2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 1), (2, 2, 2, 1)),
    "seed5": ((9, 14, 6, 2), (12, 9, 6, 2), (7, 13, 3, 4), (7, 13, 3, 4)),
    "seed6": ((5, 15, 2, 2), (6, 13, 3, 2), (5, 15, 2, 1), (5, 15, 2, 1)),
    "seed7": ((7, 24, 3, 2), (6, 6, 3, 4), (7, 24, 3, 2), (7, 24, 3, 2)),
    "seed8": ((1, 5, 1, 2), (4, 2, 3, 2), (1, 5, 1, 2), (1, 5, 1, 2)),
    "seed9": ((0, 0, 0, 2), (0, 0, 0, 2), (0, 0, 0, 2), (0, 0, 0, 2)),
}


@pytest.fixture(scope="module")
def database():
    """One database for every run: plans depend on the truth table only."""
    return McDatabase()


def _run(xag, objective, database):
    """(ANDs, XORs, depth, rounds) of the objective's canonical flow."""
    result = run_pipeline(xag, parse_flow(cost_model_flow(objective)),
                          cut_cache=CutFunctionCache(database))
    final = result.final
    assert equivalent(xag, final)
    return (final.num_ands, final.num_xors, multiplicative_depth(final),
            len(result.rounds))


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("circuit", sorted(_CIRCUITS))
def test_canonical_flows_on_circuits(circuit, objective, database):
    pinned = FLOW_PINS[circuit][OBJECTIVES.index(objective)]
    assert _run(_CIRCUITS[circuit](), objective, database) == pinned


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_canonical_flows_on_harness_seeds(objective, database):
    measured = {}
    pinned = {}
    for seed in range(10):
        xag = seeded_xag(seed, **generator_knobs(seed))
        measured[seed] = _run(xag, objective, database)
        pinned[seed] = FLOW_PINS[f"seed{seed}"][OBJECTIVES.index(objective)]
    assert measured == pinned


@pytest.mark.parametrize("objective", ["mc", "mc-depth"])
def test_every_round_examines_every_live_gate(objective):
    """A round's Phase 1 visits each live gate once, in every pass."""
    result = run_pipeline(C.int_to_float(), standard_flow(objective),
                          params=RewriteParams(objective=objective))
    assert result.converged and len(result.rounds) >= 5
    assert [stats.nodes_considered for stats in result.rounds] == \
        [stats.ands_before + stats.xors_before for stats in result.rounds]

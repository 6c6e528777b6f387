"""The dirty-node worklist against rounds that examine every gate.

After its first round a rewrite pass examines only the transitive fanout of
the nodes the previous round changed (the seeds an
``OptimizationContext`` carries between rounds and passes).  A node outside
that fanout kept its cuts, cone functions and MFFC, so it cannot have
gained a candidate: the worklist may change how many nodes a round
examines, never the result.  Each parity test runs the same flow twice: as
shipped, and with ``CutRewriter.rewrite_in_place`` patched to drop its
worklist, so every round examines every live gate (the oracle).  The
oracle must also catch a worklist that is seeded wrongly.
"""

import pytest

from repro.circuits import arithmetic as A
from repro.circuits import control as C
from repro.cuts import CutFunctionCache
from repro.mc import McDatabase
from repro.rewriting import CutRewriter, parse_flow, run_pipeline
from repro.rewriting.pipeline import OptimizationContext
from repro.testing import seeded_xag
from repro.testing.diff import cost_model_flow, generator_knobs
from repro.xag import multiplicative_depth

_REWRITE_IN_PLACE = CutRewriter.rewrite_in_place

#: the harness's canonical flow of every built-in cost model.
_FLOWS = [pytest.param(cost_model_flow(name), id=name)
          for name in ("mc", "size", "mc-depth", "fhe")]

_CIRCUITS = {
    "int_to_float": C.int_to_float,
    "priority_encoder16": lambda: C.priority_encoder(16),
    "adder8": lambda: A.adder(8),
}


@pytest.fixture(scope="module")
def database():
    """One database for every run: plans depend on the truth table only."""
    return McDatabase()


def _every_gate(monkeypatch):
    """Make every round ignore its worklist (the oracle)."""
    monkeypatch.setattr(
        CutRewriter, "rewrite_in_place",
        lambda self, xag, worklist=None, snapshot=False:
            _REWRITE_IN_PLACE(self, xag, None, snapshot))


def _run(xag, flow, database):
    """(ANDs, XORs, depth, rounds) of ``flow`` and the nodes it examined."""
    result = run_pipeline(xag, parse_flow(flow),
                          cut_cache=CutFunctionCache(database))
    final = result.final
    examined = sum(stats.nodes_considered for stats in result.rounds)
    return (final.num_ands, final.num_xors, multiplicative_depth(final),
            len(result.rounds)), examined


def _assert_parity(xag, flow, database, monkeypatch):
    triple, examined = _run(xag, flow, database)
    with monkeypatch.context() as patch:
        _every_gate(patch)
        oracle_triple, oracle_examined = _run(xag, flow, database)
    assert triple == oracle_triple
    assert examined <= oracle_examined


@pytest.mark.parametrize("flow", _FLOWS)
@pytest.mark.parametrize("circuit", sorted(_CIRCUITS))
def test_worklist_matches_every_gate_rounds_on_circuits(
        circuit, flow, database, monkeypatch):
    _assert_parity(_CIRCUITS[circuit](), flow, database, monkeypatch)


@pytest.mark.parametrize("flow", _FLOWS)
def test_worklist_matches_every_gate_rounds_on_harness_seeds(
        flow, database, monkeypatch):
    for seed in range(10):
        xag = seeded_xag(seed, **generator_knobs(seed))
        _assert_parity(xag, flow, database, monkeypatch)


def test_every_gate_oracle_catches_broken_worklist_seeding(database,
                                                           monkeypatch):
    """Passes hand on empty seeds, so the convergence pass examines nothing
    after the one-round pass; the oracle still examines every gate."""
    set_seeds = OptimizationContext.set_seeds
    monkeypatch.setattr(
        OptimizationContext, "set_seeds",
        lambda self, seeds, objective: set_seeds(self, set(), objective))
    xag = seeded_xag(10, **generator_knobs(10))
    broken, _ = _run(xag, "mc,mc*", database)
    _every_gate(monkeypatch)
    oracle, _ = _run(xag, "mc,mc*", database)
    assert broken != oracle
    assert oracle[0] < broken[0]  # the oracle found the missed rewrites

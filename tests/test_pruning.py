"""Lower-bound pruning of cut candidates (``CostModel.min_and_gain``).

A candidate is dropped before its plan lookup when the multiplicative-
complexity lower bound of its cut function proves that the cost model's
veto would refuse it.  Pruning may change how many functions are classified
and synthesised, never what a round selects.  Each parity test runs the
same flow twice: as shipped, and with ``min_and_gain`` patched to ``None``
on the model classes (the unpruned oracle).  The classes are patched rather
than one instance because the depth flow's guarded rounds resolve ``"mc"``
by name.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import control as C
from repro.cuts import CutFunctionCache
from repro.mc import McDatabase
from repro.mc.bounds import lower_bound
from repro.rewriting import (CutRewriter, FheNoiseBudgetCost, McCost,
                             McDepthCost, RewriteParams, SizeCost,
                             cost_model, run_pipeline, standard_flow)
from repro.testing import seeded_xag
from repro.xag import multiplicative_depth

_SELECT = CutRewriter._select_candidates

#: the model classes whose ``min_and_gain`` states a floor.
_PRUNING_MODELS = (McCost, McDepthCost, FheNoiseBudgetCost)

_MODELS = [
    pytest.param("mc", False, id="mc"),
    pytest.param("mc", True, id="mc-zero-gain"),
    pytest.param("mc-depth", False, id="mc-depth"),
    pytest.param("fhe", False, id="fhe"),
    pytest.param(FheNoiseBudgetCost(level_cap=2), False, id="fhe-level-cap"),
]

_CIRCUITS = {
    "int2float": lambda: C.int_to_float(11),
    "router": C.router_like,
    "cavlc": C.cavlc_like,
}


@pytest.fixture(scope="module")
def database():
    """One database for every run: plans depend on the truth table only."""
    return McDatabase()


def _unprune(monkeypatch):
    for model_class in _PRUNING_MODELS:
        monkeypatch.setattr(model_class, "min_and_gain",
                            lambda self, allow: None)


def _run(xag, objective, allow_zero_gain, database, monkeypatch):
    """The model's canonical flow with a fresh plan memo, recording rounds.

    Returns every round's selections (root -> cut leaves, plan table and
    gain vector), the final (ANDs, XORs, depth, rounds) and the cache.
    """
    rounds = []

    def recording(self, network, stats):
        selections = _SELECT(self, network, stats)
        rounds.append({
            root: (c.cut.leaves, c.plan.table,
                   (c.gain_ands, c.gain_gates, c.gain_depth))
            for root, c in selections.items()})
        return selections

    monkeypatch.setattr(CutRewriter, "_select_candidates", recording)
    cache = CutFunctionCache(database)
    params = RewriteParams(objective=objective,
                           allow_zero_gain=allow_zero_gain)
    result = run_pipeline(xag, standard_flow(objective), params=params,
                          cut_cache=cache)
    final = result.final
    triple = (final.num_ands, final.num_xors,
              multiplicative_depth(final), len(result.rounds))
    return rounds, triple, cache


def _assert_parity(xag, objective, allow_zero_gain, database, monkeypatch):
    rounds, triple, pruned = _run(xag, objective, allow_zero_gain,
                                  database, monkeypatch)
    _unprune(monkeypatch)
    oracle_rounds, oracle_triple, unpruned = _run(
        xag, objective, allow_zero_gain, database, monkeypatch)
    assert rounds == oracle_rounds
    assert triple == oracle_triple
    assert unpruned.plans_pruned == 0
    assert pruned.plan_misses <= unpruned.plan_misses
    return pruned


@pytest.mark.parametrize("objective, allow_zero_gain", _MODELS)
@pytest.mark.parametrize("circuit", sorted(_CIRCUITS))
def test_pruning_keeps_every_selection_on_control_circuits(
        circuit, objective, allow_zero_gain, database, monkeypatch):
    xag = _CIRCUITS[circuit]()
    pruned = _assert_parity(xag, objective, allow_zero_gain, database,
                            monkeypatch)
    assert pruned.plans_pruned > 0


@pytest.mark.parametrize("objective, allow_zero_gain", _MODELS)
def test_pruning_keeps_every_selection_on_random_networks(
        objective, allow_zero_gain, database, monkeypatch):
    for seed in range(4):
        xag = seeded_xag(seed, num_pis=8, num_gates=60)
        with monkeypatch.context() as patch:
            _assert_parity(xag, objective, allow_zero_gain, database, patch)


def test_size_never_prunes(database):
    assert SizeCost().min_and_gain(False) is None
    assert SizeCost().min_and_gain(True) is None
    cache = CutFunctionCache(database)
    result = run_pipeline(C.int_to_float(11), standard_flow("size"),
                          params=RewriteParams(objective="size"),
                          cut_cache=cache)
    assert result.rounds
    assert cache.plan_misses > 0
    assert cache.plans_pruned == 0


def test_builtin_floors_match_their_vetoes():
    assert cost_model("mc").min_and_gain(False) == 1
    assert cost_model("mc").min_and_gain(True) == 0
    for name in ("mc-depth", "fhe"):
        for allow in (False, True):
            assert cost_model(name).min_and_gain(allow) == 0
    assert FheNoiseBudgetCost(level_cap=1).min_and_gain(False) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << (1 << n)) - 1), st.integers(-1, 5))))
def test_prunes_exactly_when_the_lower_bound_exceeds_the_budget(case):
    num_vars, table, max_ands = case
    cache = CutFunctionCache()
    pruned = cache.prunes(table, num_vars, max_ands)
    assert pruned == (lower_bound(table, num_vars) > max_ands)
    assert cache.plans_pruned == int(pruned)
    # the bound never touches the plan memo or the database
    assert cache.plan_hits == cache.plan_misses == 0
    assert cache.database.stats()["classification_misses"] == 0
    if pruned:
        assert cache.plan_for(table, num_vars).num_ands > max_ands

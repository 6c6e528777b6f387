"""Lower-bound pruning of cut candidates (``CostModel.min_and_gain``).

A candidate is dropped before its plan lookup when the multiplicative-
complexity lower bound of its cut function proves that the cost model's
veto would refuse it.  Pruning may change how many functions are classified
and synthesised, never what a round selects.  Each parity test runs the
same flow twice: as shipped, and with ``min_and_gain`` patched to ``None``
on the model classes (the unpruned oracle).  The classes are patched rather
than one instance because the depth flow's guarded rounds resolve ``"mc"``
by name.

Selection reads the bound before the MFFC walk where that cannot change a
count; :func:`walk_first_select` (every cut walks first, then meets the
bound) is its oracle.
"""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.rewriting.rewrite as rewrite_module
from repro.circuits import control as C
from repro.cuts import CutFunctionCache
from repro.cuts.cut import Cut
from repro.cuts.enumeration import enumerate_cuts
from repro.cuts.mffc import mffc
from repro.mc import McDatabase
from repro.mc.bounds import lower_bound
from repro.rewriting import (CutRewriter, FheNoiseBudgetCost, McCost,
                             McDepthCost, RewriteParams, SizeCost,
                             cost_model, run_pipeline, standard_flow)
from repro.rewriting.rewrite import Candidate
from repro.testing import seeded_xag
from repro.xag import multiplicative_depth
from repro.xag.graph import NodeKind

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
    # rows beyond the table are ignored, as by the plan lookup
    stray = table | (0b101 << (1 << num_vars))
    assert cache.prunes(stray, num_vars, max_ands) == pruned
    if pruned:
        assert cache.plan_for(table, num_vars).num_ands > max_ands


# ----------------------------------------------------------------------
# the bound before the MFFC walk
# ----------------------------------------------------------------------
def walk_first_select(self, xag, stats):
    """``CutRewriter._select_candidates`` with every cut's MFFC walk run
    before its lower-bound check (the oracle of the bound-first order)."""
    params = self.params
    model = self._model()
    cuts = self.cut_sets.cuts(xag)
    selections = {}
    cache = self.cut_cache
    plan_hits_before = cache.plan_hits
    plan_misses_before = cache.plan_misses
    depth_aware = model.depth_aware
    node_levels = self._levels(xag).levels() if depth_aware else None
    allow_zero_gain = params.allow_zero_gain
    min_gain = model.min_and_gain(allow_zero_gain)
    kinds = xag._kind
    skip_and_free = not model.examine_and_free_cones
    for node in xag.gates():
        stats.nodes_considered += 1
        node_mffc = mffc(xag, node)
        if min_gain and sum(1 for n in node_mffc
                            if kinds[n] == NodeKind.AND) < min_gain:
            continue
        best: Optional[Candidate] = None
        best_key = None
        for leaves, table, has_and in cuts[node]:
            size = len(leaves)
            if size < 2 or size > params.cut_size or node in leaves:
                continue
            saved_ands, saved_gates = rewrite_module.mffc_saving(
                xag, node, leaves, node_mffc)
            if min_gain is not None and saved_ands < min_gain:
                continue
            if not saved_ands and skip_and_free and not has_and:
                continue
            if min_gain is not None and cache.prunes(
                    table, size, saved_ands - min_gain):
                continue
            plan = cache.plan_for(table, size)
            stats.candidates_evaluated += 1
            gain_depth = 0
            root_level = 0
            if depth_aware:
                root_level = node_levels[node]
                gain_depth = root_level - plan.and_level(
                    [node_levels[leaf] for leaf in leaves])
            candidate = Candidate(Cut(node, leaves, table, has_and), plan,
                                  saved_ands - plan.num_ands,
                                  saved_gates - plan.estimated_gates,
                                  gain_depth, root_level)
            if not model.acceptable(candidate, allow_zero_gain):
                continue
            key = model.key(candidate)
            if best_key is None or key > best_key:
                best = candidate
                best_key = key
        if best is not None:
            selections[node] = best
            stats.rewrites_selected += 1
    stats.plan_cache_hits = cache.plan_hits - plan_hits_before
    stats.plan_cache_misses = cache.plan_misses - plan_misses_before
    return selections


def _run_recording_counts(xag, objective, allow_zero_gain, database,
                          monkeypatch, select):
    """The model's flow with ``select`` as the selection; per round: the
    selections and the cache counters, and the number of MFFC walks."""
    rounds = []
    walks = [0]
    saving = rewrite_module.mffc_saving

    def counting_saving(*args):
        walks[0] += 1
        return saving(*args)

    def recording(self, network, stats):
        selections = select(self, network, stats)
        cache = self.cut_cache
        rounds.append((
            {root: (c.cut.leaves, c.plan.table,
                    (c.gain_ands, c.gain_gates, c.gain_depth))
             for root, c in selections.items()},
            stats.candidates_evaluated, cache.plans_pruned,
            cache.plan_hits, cache.plan_misses))
        return selections

    with monkeypatch.context() as patch:
        patch.setattr(rewrite_module, "mffc_saving", counting_saving)
        patch.setattr(CutRewriter, "_select_candidates", recording)
        params = RewriteParams(objective=objective,
                               allow_zero_gain=allow_zero_gain)
        run_pipeline(xag, standard_flow(objective), params=params,
                     cut_cache=CutFunctionCache(database))
    return rounds, walks[0]


_ORDER_MODELS = _MODELS + [pytest.param("size", False, id="size")]


@pytest.mark.parametrize("objective, allow_zero_gain", _ORDER_MODELS)
def test_bound_before_walk_keeps_every_selection_and_count(
        objective, allow_zero_gain, database, monkeypatch):
    networks = [build() for _, build in sorted(_CIRCUITS.items())]
    networks += [seeded_xag(seed, num_pis=8, num_gates=60)
                 for seed in range(10)]
    walks = oracle_walks = 0
    for xag in networks:
        rounds, shipped = _run_recording_counts(
            xag, objective, allow_zero_gain, database, monkeypatch, _SELECT)
        oracle_rounds, oracle = _run_recording_counts(
            xag, objective, allow_zero_gain, database, monkeypatch,
            walk_first_select)
        assert rounds == oracle_rounds, xag.name
        assert shipped <= oracle
        walks += shipped
        oracle_walks += oracle
    if objective in ("mc", "mc-depth"):
        assert walks < oracle_walks
    if objective == "size":
        assert walks == oracle_walks


def test_and_free_cuts_have_affine_tables():
    """The premise of the bound-first order under a floor of 0: a cut whose
    cone holds no AND has an affine table, so its lower bound is 0."""
    checked = 0
    for seed in range(12):
        xag = seeded_xag(seed, num_pis=8, num_gates=80, and_bias=0.3)
        for node, node_cuts in enumerate_cuts(xag, 6, 12).items():
            for cut in node_cuts:
                if not cut.has_and:
                    checked += 1
                    assert lower_bound(cut.table, len(cut.leaves)) == 0, \
                        (seed, node, cut.leaves)
    assert checked > 100

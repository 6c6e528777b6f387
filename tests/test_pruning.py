"""Lower-bound pruning of cut candidates (``CostModel.min_and_gain``).

A cut is dropped before its plan lookup when the multiplicative-
complexity lower bound of its cut function proves that the cost model's
veto would refuse it or rank it below the root's incumbent: before the
MFFC walk against the MFFC's AND count, after it by the cut's best case
(gains from the lower bound and, for depth-aware models, the AND-level
bound).  Pruning may change how many functions are classified and
synthesised, never what a round selects.  Each parity test runs the same
flow twice: as shipped, and with ``min_and_gain`` set to ``None`` on the
model classes (the unpruned oracle).  The classes are patched rather than
one instance because the depth flow's guarded rounds resolve ``"mc"`` by
name.  :func:`price_every_cut_select`, which walks every cut and prices
each one the lower bound keeps, is the oracle of both checks together.
"""

import importlib.util
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.rewriting.rewrite as rewrite_module
from repro.circuits import control as C
from repro.cuts import CutFunctionCache
from repro.cuts.cut import Cut
from repro.cuts.enumeration import enumerate_cuts
from repro.cuts.mffc import mffc
from repro.engine import EngineConfig
from repro.engine.core import select_cases
from repro.mc import McDatabase, quadratic_complexity
from repro.mc.bounds import lower_bound
from repro.rewriting import (CutRewriter, FheNoiseBudgetCost, McCost,
                             McDepthCost, RewriteParams, SizeCost,
                             cost_model, run_pipeline, standard_flow)
from repro.rewriting.insert import insert_plan
from repro.rewriting.rewrite import Candidate
from repro.testing import seeded_xag
from repro.tt.anf import degree, from_anf
from repro.tt.properties import is_affine
from repro.xag import LevelTracker, Xag, multiplicative_depth
from repro.xag.graph import lit_node

_SELECT = CutRewriter._select_candidates

#: the model classes whose ``min_and_gain`` states a floor.
_PRUNING_MODELS = (McCost, McDepthCost, FheNoiseBudgetCost)

_MODELS = [
    pytest.param("mc", id="mc"),
    pytest.param("mc-depth", id="mc-depth"),
    pytest.param("fhe", id="fhe"),
    pytest.param(FheNoiseBudgetCost(level_cap=2), id="fhe-level-cap"),
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
        monkeypatch.setattr(model_class, "min_and_gain", None)


def _run(xag, objective, database, monkeypatch):
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
    result = run_pipeline(xag, standard_flow(objective),
                          params=RewriteParams(objective=objective),
                          cut_cache=cache)
    final = result.final
    triple = (final.num_ands, final.num_xors,
              multiplicative_depth(final), len(result.rounds))
    return rounds, triple, cache


def _assert_parity(xag, objective, database, monkeypatch):
    """Run pruned and unpruned; return both plan memos."""
    with monkeypatch.context() as patch:
        rounds, triple, pruned = _run(xag, objective, database, patch)
        _unprune(patch)
        oracle_rounds, oracle_triple, unpruned = _run(
            xag, objective, database, patch)
    assert rounds == oracle_rounds, xag.name
    assert triple == oracle_triple, xag.name
    assert unpruned.plans_pruned == 0
    assert pruned.plan_misses <= unpruned.plan_misses, xag.name
    return pruned, unpruned


@pytest.mark.parametrize("objective", _MODELS)
@pytest.mark.parametrize("circuit", sorted(_CIRCUITS))
def test_pruning_keeps_every_selection_on_control_circuits(
        circuit, objective, database, monkeypatch):
    xag = _CIRCUITS[circuit]()
    pruned, _ = _assert_parity(xag, objective, database, monkeypatch)
    assert pruned.plans_pruned > 0


@pytest.mark.parametrize("objective", _MODELS)
def test_pruning_keeps_every_selection_on_random_networks(
        objective, database, monkeypatch):
    for seed in range(4):
        xag = seeded_xag(seed, num_pis=8, num_gates=60)
        _assert_parity(xag, objective, database, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("objective", ["mc", "mc-depth", "fhe"])
def test_pruning_keeps_every_selection_on_the_epfl_control_group(
        objective, database, monkeypatch):
    """The registry's ten EPFL control cases, converged: identical rounds
    and results, and fewer plan misses over the group."""
    cases = select_cases(EngineConfig(suites=("epfl",), groups=["control"]))
    assert len(cases) == 10
    misses = oracle_misses = 0
    for case in cases:
        pruned, unpruned = _assert_parity(case.build(), objective, database,
                                          monkeypatch)
        misses += pruned.plan_misses
        oracle_misses += unpruned.plan_misses
    assert misses < oracle_misses


def test_size_never_prunes(database):
    assert SizeCost.min_and_gain is None
    cache = CutFunctionCache(database)
    result = run_pipeline(C.int_to_float(11), standard_flow("size"),
                          params=RewriteParams(objective="size"),
                          cut_cache=cache)
    assert result.rounds
    assert cache.plan_misses > 0
    assert cache.plans_pruned == 0


def test_builtin_floors_match_their_vetoes():
    assert cost_model("mc").min_and_gain == 1
    assert cost_model("mc-depth").min_and_gain == 0
    assert cost_model("fhe").min_and_gain == 0
    assert FheNoiseBudgetCost(level_cap=1).min_and_gain == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_memoised_lower_bound_is_the_bound_of_the_table(case):
    num_vars, table = case
    cache = CutFunctionCache()
    bound = cache.lower_bound(table, num_vars)
    assert bound == lower_bound(table, num_vars)
    # the bound counts no prune and never touches the plan memo or the
    # database
    assert cache.plans_pruned == 0
    assert cache.plan_hits == cache.plan_misses == 0
    assert cache.database.stats()["classification_misses"] == 0
    # rows beyond the table are ignored, as by the plan lookup
    stray = table | (0b101 << (1 << num_vars))
    assert cache.lower_bound(stray, num_vars) == bound
    assert cache.plan_for(table, num_vars).num_ands >= bound


def three_transform_lower_bound(table, num_vars):
    """The lower bound as three Möbius transforms computed it: the affine
    test, Dickson's rank and the degree each from their own ANF."""
    if is_affine(table, num_vars):
        return 0
    exact_quadratic = quadratic_complexity(table, num_vars)
    if exact_quadratic is not None:
        return exact_quadratic
    return max(1, degree(table, num_vars) - 1)


#: random tables and sparse-ANF tables (a few monomials, so low degrees
#: and quadratics are frequent) at n = 1-6.
_BOUND_TABLES = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.one_of(
        st.integers(0, (1 << (1 << n)) - 1),
        st.lists(st.integers(0, (1 << n) - 1), max_size=6).map(
            lambda monomials: from_anf(sum(1 << m for m in set(monomials)),
                                       n)))))


@settings(max_examples=400, deadline=None)
@given(_BOUND_TABLES)
def test_one_anf_lower_bound_matches_the_three_transform_formula(case):
    num_vars, table = case
    assert lower_bound(table, num_vars) == \
        three_transform_lower_bound(table, num_vars)


# ----------------------------------------------------------------------
# the best case against pricing every cut
# ----------------------------------------------------------------------
def price_every_cut_select(self, xag, stats):
    """``CutRewriter._select_candidates`` walking every cut and pricing
    each one whose saving minus the lower bound reaches the floor (the
    oracle of the pre-walk check, the best-case skip and the walk-free
    saving).  Each cut the bound rules out counts one ``plans_pruned``."""
    params = self.params
    model = self._model()
    cuts = self.cut_sets.cuts(xag)
    selections = {}
    cache = self.cut_cache
    plan_hits_before = cache.plan_hits
    plan_misses_before = cache.plan_misses
    depth_aware = model.depth_aware
    node_levels = self._levels(xag).levels() if depth_aware else None
    min_gain = model.min_and_gain
    skip_and_free = not model.examine_and_free_cones
    for node in xag.gates():
        stats.nodes_considered += 1
        node_mffc = mffc(xag, node)
        if min_gain is not None and \
                sum(1 for n in node_mffc if xag.is_and(n)) < min_gain:
            continue
        best: Optional[Candidate] = None
        best_key = None
        for leaves, table, has_and in cuts[node]:
            size = len(leaves)
            if size < 2 or size > params.cut_size or node in leaves:
                continue
            saved_ands, saved_gates = rewrite_module.mffc_saving(
                xag, node, leaves, node_mffc)
            if not saved_ands and skip_and_free and not has_and:
                continue
            if min_gain is not None and \
                    saved_ands - cache.lower_bound(table, size) < min_gain:
                cache.plans_pruned += 1
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
            if not model.acceptable(candidate):
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


def _run_recording_counts(xag, objective, database, monkeypatch, select):
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
        run_pipeline(xag, standard_flow(objective),
                     params=RewriteParams(objective=objective),
                     cut_cache=CutFunctionCache(database))
    return rounds, walks[0]


_ORDER_MODELS = _MODELS + [pytest.param("size", id="size")]


def test_and_free_cuts_have_affine_tables():
    """The merge's "AND in cone" bit agrees with the bound: a cut whose
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


def _parity_networks():
    networks = [build() for _, build in sorted(_CIRCUITS.items())]
    return networks + [seeded_xag(seed, num_pis=8, num_gates=60)
                       for seed in range(10)]


@pytest.mark.parametrize("objective", _ORDER_MODELS)
def test_best_case_skip_keeps_every_selection_and_prices_less(
        objective, database, monkeypatch):
    """Against walking and pricing every cut the bound keeps: the same
    selections per round, never more lookups, plan misses or saving
    walks, and every cut the oracle prices or prunes is priced or pruned
    (``plans_pruned`` counts what either check rules out)."""
    lookups = oracle_lookups = walks = oracle_walks = 0
    for xag in _parity_networks():
        rounds, shipped = _run_recording_counts(
            xag, objective, database, monkeypatch, _SELECT)
        oracle_rounds, oracle = _run_recording_counts(
            xag, objective, database, monkeypatch, price_every_cut_select)
        assert len(rounds) == len(oracle_rounds), xag.name
        pruned_before = oracle_pruned_before = 0
        for ours, theirs in zip(rounds, oracle_rounds):
            selected, priced, pruned, hits, misses = ours
            assert selected == theirs[0], xag.name
            assert priced <= theirs[1], xag.name
            assert priced + pruned - pruned_before == \
                theirs[1] + theirs[2] - oracle_pruned_before, xag.name
            assert hits + misses <= theirs[3] + theirs[4], xag.name
            assert misses <= theirs[4], xag.name
            pruned_before, oracle_pruned_before = pruned, theirs[2]
        assert shipped <= oracle, xag.name
        lookups += rounds[-1][3] + rounds[-1][4]
        oracle_lookups += oracle_rounds[-1][3] + oracle_rounds[-1][4]
        walks += shipped
        oracle_walks += oracle
    assert walks < oracle_walks
    if objective == "size":
        # no floor, no best case: every surviving cut is priced
        assert lookups == oracle_lookups
    else:
        assert lookups < oracle_lookups


def _example_cost_model(name):
    path = Path(__file__).resolve().parent.parent / "examples" / "custom_cost.py"
    spec = importlib.util.spec_from_file_location("custom_cost_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)()


#: every model that states a floor: each must refuse every AND gain below
#: it and keep ``acceptable`` and ``key`` monotone in the gains.
_FLOOR_MODELS = [
    McCost(), McDepthCost(), FheNoiseBudgetCost(),
    FheNoiseBudgetCost(level_cap=2),
    _example_cost_model("GarbledCircuitCost"),
]

_GAIN = st.integers(-4, 4)
_RAISE = st.integers(0, 4)


@settings(max_examples=400, deadline=None)
@given(st.tuples(_GAIN, _GAIN, _GAIN), st.tuples(_RAISE, _RAISE, _RAISE),
       st.integers(0, 6))
def test_floor_models_are_monotone_in_the_gains(gains, raised, root_level):
    """The pruning checks' premise: no AND gain below the floor is
    accepted, and raising any gain never turns an accepted candidate down
    nor lowers its key."""
    low = Candidate(None, None, *gains, root_level)
    high = Candidate(None, None,
                     *(g + r for g, r in zip(gains, raised)), root_level)
    for model in _FLOOR_MODELS:
        assert model.min_and_gain is not None
        if model.acceptable(low):
            assert low.gain_ands >= model.min_and_gain, model
            assert model.acceptable(high), model
        assert model.key(low) <= model.key(high), model


def _leaves_at_levels(xag, levels):
    """A leaf literal per entry of ``levels``, each at that AND-level."""
    leaves = []
    for level in levels:
        signal = xag.create_pi()
        for _ in range(level):
            signal = xag.create_and(signal, xag.create_pi())
        leaves.append(signal)
    return leaves


_LEVEL_DATABASE = McDatabase()

_TABLES = st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.one_of(
        st.integers(0, (1 << (1 << n)) - 1),
        # sparse ANFs: a few monomials, so the leaf levels decide
        st.lists(st.integers(0, (1 << n) - 1), max_size=4).map(
            lambda monomials: from_anf(sum(1 << m for m in set(monomials)),
                                       n))),
    st.lists(st.integers(0, 6), min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(_TABLES)
def test_level_bound_never_exceeds_the_plan_or_the_built_level(case):
    num_vars, table, levels = case
    cache = CutFunctionCache(_LEVEL_DATABASE)
    bound = cache.level_bound(table, num_vars, levels)
    plan = cache.plan_for(table, num_vars)
    assert bound <= plan.and_level(levels)
    xag = Xag()
    lit = insert_plan(xag, plan, _leaves_at_levels(xag, levels))
    assert bound <= LevelTracker(xag).level(lit_node(lit))
    # with every leaf at level 0 it is the classic ⌈log2 deg(f)⌉
    flat = cache.level_bound(table, num_vars, [0] * num_vars)
    assert flat == max(degree(table, num_vars) - 1, 0).bit_length()


@pytest.mark.parametrize("monomials, levels, expected", [
    # x0 x1 x2 at levels 2, 1, 1: 4 + 2 + 2 = 8 -> 3 (x1 x2 first)
    ([0b111], [2, 1, 1], 3),
    # at levels 2, 0, 0: 4 + 1 + 1 = 6 -> 3
    ([0b111], [2, 0, 0], 3),
    # x0 x1 at levels 3, 0: 8 + 1 = 9 -> 4, one AND above the deep leaf
    ([0b11], [3, 0], 4),
    # a linear term costs its leaf's level, nothing more
    ([0b01, 0b10], [5, 2], 5),
    # x0 x1 + x2 x3 + 1: the heavier product decides
    ([0b0011, 0b1100, 0], [1, 1, 0, 3], 4),
    # constants sit at level 0
    ([], [4, 4], 0),
    ([0], [4, 4], 0),
])
def test_level_bound_values(monomials, levels, expected):
    num_vars = len(levels)
    table = from_anf(sum(1 << m for m in monomials), num_vars)
    assert CutFunctionCache().level_bound(table, num_vars, levels) == expected

"""Multiplicative-depth subsystem: level tracker, balancing, mc-depth flow."""

import random

import pytest

from repro.testing import random_xag
from repro.circuits import arithmetic as A
from repro.circuits import control as C
from repro.rewriting import (CutRewriter, RewriteParams, optimize,
                             run_pipeline, standard_flow)
from repro.xag import (LevelTracker, Xag, balance, balance_in_place,
                       equivalent, multiplicative_depth, node_levels)
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import lit_node, lit_not


def and_chain(width=12):
    xag = Xag()
    pis = xag.create_pis(width)
    acc = pis[0]
    for pi in pis[1:]:
        acc = xag.create_and(acc, pi)
    xag.create_po(acc, "all")
    return xag


# ----------------------------------------------------------------------
# maintained AND-levels
# ----------------------------------------------------------------------
def test_level_tracker_matches_fresh_recompute():
    xag = C.int_to_float()
    tracker = LevelTracker(xag)
    fresh = node_levels(xag, and_only=True)
    assert tracker.levels()[:len(fresh)] == fresh
    assert tracker.critical_level() == multiplicative_depth(xag)


def test_level_tracker_total_depth_variant():
    xag = C.int_to_float()
    tracker = LevelTracker(xag, and_only=False)
    fresh = node_levels(xag, and_only=False)
    assert tracker.levels()[:len(fresh)] == fresh


def test_level_tracker_follows_substitution():
    xag = Xag()
    a, b, c, d = xag.create_pis(4)
    t = xag.create_and(a, b)
    u = xag.create_and(t, c)
    v = xag.create_and(u, d)
    xag.create_po(v)
    tracker = LevelTracker(xag)
    assert tracker.level(lit_node(v)) == 3
    # shorten the chain: t := a (levels of u, v drop by one)
    xag.substitute_node(lit_node(t), a)
    fresh = node_levels(xag, and_only=True)
    for node in xag.topological_order():
        assert tracker.levels()[node] == fresh[node]
    assert tracker.critical_level() == 2


def test_level_tracker_sees_appended_nodes():
    xag = and_chain(6)
    tracker = LevelTracker(xag)
    tracker.sync()
    pis = xag.pi_literals()
    extra = xag.create_and(pis[0], lit_not(pis[1]))
    xag.create_po(extra, "extra")
    # appending does not notify observers: the node count tells
    assert tracker.level(lit_node(extra)) == 1
    assert tracker.levels() == node_levels(xag, and_only=True)


def test_level_tracker_resets_on_rollback():
    xag = and_chain(4)
    tracker = LevelTracker(xag)
    tracker.sync()
    checkpoint = xag.checkpoint()
    pis = xag.pi_literals()
    xag.create_and(xag.create_xor(pis[0], pis[1]), pis[2])
    tracker.sync()
    xag.rollback(checkpoint)
    fresh = node_levels(xag, and_only=True)
    assert tracker.levels()[:len(fresh)] == fresh


# ----------------------------------------------------------------------
# tree balancing
# ----------------------------------------------------------------------
def test_balance_and_chain_to_logarithmic_depth():
    chain = and_chain(16)
    assert multiplicative_depth(chain) == 15
    balanced, stats = balance(chain)
    assert equivalent(chain, balanced)
    assert multiplicative_depth(balanced) == 4
    assert balanced.num_ands == chain.num_ands  # associativity is AND-free
    assert stats.verified is True
    assert stats.trees_rebalanced >= 1


def test_balance_or_chain_through_complemented_edges():
    """OR chains are AND chains with complemented leaf edges."""
    xag = Xag()
    pis = xag.create_pis(8)
    acc = pis[0]
    for pi in pis[1:]:
        acc = xag.create_or(acc, pi)
    xag.create_po(acc, "any")
    assert multiplicative_depth(xag) == 7
    balanced, _ = balance(xag)
    assert equivalent(xag, balanced)
    assert multiplicative_depth(balanced) == 3


def test_balance_weighs_leaf_levels_not_just_counts():
    """A deep leaf must be merged last (Huffman), not mid-tree."""
    xag = Xag()
    pis = xag.create_pis(6)
    deep = xag.create_and(xag.create_and(pis[0], pis[1]), pis[2])  # level 2
    acc = deep
    for pi in pis[3:]:
        acc = xag.create_and(acc, pi)
    xag.create_po(acc)
    assert multiplicative_depth(xag) == 5
    balanced, _ = balance(xag)
    assert equivalent(xag, balanced)
    # optimum: merge the three shallow leaves (depth 2) in parallel with the
    # deep operand's own cone, one final merge on top
    assert multiplicative_depth(balanced) == 3


def test_balance_respects_multi_fanout_boundaries():
    """Interior nodes with fanout > 1 must not be duplicated or rewired."""
    xag = Xag()
    pis = xag.create_pis(5)
    shared = xag.create_and(pis[0], pis[1])
    chain = xag.create_and(xag.create_and(shared, pis[2]), pis[3])
    xag.create_po(chain, "chain")
    xag.create_po(xag.create_xor(shared, pis[4]), "tap")
    ands_before = xag.num_ands
    balanced, _ = balance(xag)
    assert equivalent(xag, balanced)
    assert balanced.num_ands <= ands_before


def test_balance_in_place_notifies_observers():
    """Balancing goes through substitute_node, so a subscribed simulator
    and the maintained levels stay valid on the same network object."""
    xag = and_chain(12)
    words, mask, _ = equivalence_stimulus(xag.num_pis)
    from repro.xag import BitSimulator
    sim = BitSimulator(xag, words, mask)
    po_before = sim.po_words()
    tracker = LevelTracker(xag)
    tracker.sync()
    stats = balance_in_place(xag)
    assert stats.depth_after < stats.depth_before
    assert sim.po_words() == po_before
    fresh = node_levels(xag, and_only=True)
    for node in xag.topological_order():
        assert tracker.levels()[node] == fresh[node]


def test_balance_xor_trees_keep_mult_depth_and_and_count():
    xag = Xag()
    pis = xag.create_pis(10)
    acc = xag.create_and(pis[0], pis[1])
    for pi in pis[2:]:
        acc = xag.create_xor(acc, pi)
    xag.create_po(acc)
    from repro.xag.depth import depth as total_depth
    total_before = total_depth(xag)
    balanced, _ = balance(xag)
    assert equivalent(xag, balanced)
    assert multiplicative_depth(balanced) == multiplicative_depth(xag) == 1
    assert balanced.num_ands == xag.num_ands
    assert total_depth(balanced) < total_before


# ----------------------------------------------------------------------
# mc-depth objective
# ----------------------------------------------------------------------
def test_mc_depth_objective_never_deepens(seeded_circuits=(3, 7, 11)):
    for seed in seeded_circuits:
        xag = random_xag(random.Random(seed), num_pis=6, num_gates=40,
                         and_bias=0.7)
        before = multiplicative_depth(xag)
        result = optimize(xag, params=RewriteParams(objective="mc-depth"))
        assert equivalent(xag, result.final)
        assert multiplicative_depth(result.final) <= before
        assert result.final.num_ands <= xag.num_ands
        for stats in result.rounds:
            assert stats.objective == "mc-depth"
            assert stats.depth_after <= stats.depth_before


def test_mc_depth_rejects_unknown_objective_still():
    with pytest.raises(ValueError, match="unknown cost model"):
        CutRewriter(params=RewriteParams(objective="fast")).rewrite(
            C.int_to_float())


def test_plan_and_level_estimates_upper_bound():
    """The plan's estimated AND-level must never undercut the built logic."""
    from repro.cuts.enumeration import enumerate_cuts
    from repro.rewriting.insert import insert_plan
    from repro.cuts.cache import CutFunctionCache

    xag = C.priority_encoder(8)
    cache = CutFunctionCache()
    cache.bind(xag)
    levels = LevelTracker(xag).levels()
    cuts = enumerate_cuts(xag, cut_size=4, cut_limit=6)
    checked = 0
    for node, node_cuts in cuts.items():
        for cut in node_cuts[:2]:
            if cut.size < 2 or node in cut.leaves:
                continue
            table = cache.cone_function(xag, node, cut.leaves)
            plan = cache.plan_for(table, cut.size)
            leaf_levels = [levels[leaf] for leaf in cut.leaves]
            estimate = CutRewriter._plan_and_level(plan, leaf_levels)
            target = xag.clone()
            lit = insert_plan(target, plan,
                              [leaf << 1 for leaf in cut.leaves])
            built = LevelTracker(target).level(lit_node(lit))
            assert built <= estimate
            checked += 1
    assert checked > 10


# ----------------------------------------------------------------------
# depth flow
# ----------------------------------------------------------------------
def run_depth_pipeline(xag, **caches):
    """The canonical mc-depth pipeline, as the engine runs it."""
    return run_pipeline(xag, standard_flow("mc-depth"),
                        params=RewriteParams(objective="mc-depth"), **caches)


def test_depth_flow_reduces_depth_on_chain_circuits():
    chain = and_chain(16)
    result = run_depth_pipeline(chain)
    assert equivalent(chain, result.final)
    assert result.depth_after == 4
    assert result.final.num_ands <= chain.num_ands


@pytest.mark.parametrize("builder, pinned", [
    pytest.param(C.int_to_float, (70, 71, 15, 6), id="int_to_float"),
    pytest.param(lambda: C.priority_encoder(16), (63, 36, 15, 13),
                 id="priority_encoder16"),
])
def test_depth_flow_pins(builder, pinned):
    """(ANDs, XORs, depth, rounds) of the canonical depth flow, pinned."""
    xag = builder()
    flow = run_depth_pipeline(xag)
    assert (flow.final.num_ands, flow.final.num_xors, flow.depth_after,
            len(flow.rounds)) == pinned
    assert flow.depth_after <= flow.depth_before
    assert equivalent(xag, flow.final)


def test_depth_flow_never_loses_to_mc_on_depth():
    """The flow's whole point: depth no worse than initial, AND count close
    to the pure-mc flow (the bench pins the ≤1 % regression bar)."""
    xag = A.adder(8)
    mc = optimize(xag)
    df = run_depth_pipeline(xag)
    assert df.depth_after <= multiplicative_depth(xag)
    assert df.depth_after <= multiplicative_depth(mc.final)
    assert equivalent(xag, df.final)


def test_depth_flow_shares_caches():
    from repro.cuts.cache import CutFunctionCache

    cut_cache = CutFunctionCache()
    xag = C.int_to_float()
    first = run_depth_pipeline(xag, cut_cache=cut_cache)
    hits_before = cut_cache.plan_hits
    second = run_depth_pipeline(xag, cut_cache=cut_cache)
    assert cut_cache.plan_hits > hits_before
    assert (first.final.num_ands, first.depth_after) == \
        (second.final.num_ands, second.depth_after)


def test_paper_flow_supports_mc_depth_objective():
    """optimize accepts the objective directly (without balancing)."""
    xag = C.int_to_float()
    result = optimize(xag, params=RewriteParams(objective="mc-depth"),
                      max_rounds=2)
    assert equivalent(xag, result.final)
    assert multiplicative_depth(result.final) <= multiplicative_depth(xag)

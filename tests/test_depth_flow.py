"""Multiplicative-depth subsystem: level tracker, balancing, mc-depth flow."""

import importlib
import random

import pytest

from repro.testing import random_xag, seeded_xag
from repro.circuits import arithmetic as A
from repro.circuits import control as C
from repro.rewriting import (CutRewriter, RewriteParams, optimize,
                             run_pipeline, standard_flow)
from repro.xag import (LevelTracker, Xag, balance, balance_in_place,
                       equivalent, multiplicative_depth, node_levels,
                       simulate_words)
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


def or_chain(width=8):
    xag = Xag()
    pis = xag.create_pis(width)
    acc = pis[0]
    for pi in pis[1:]:
        acc = xag.create_or(acc, pi)
    xag.create_po(acc, "any")
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
    xag = or_chain(8)
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


def reference_balance(xag, max_passes=16):
    """Oracle balancer: the rebalancing loop reading ``node_levels`` afresh
    for every tree, as the balancer did before it propagated its levels."""
    from repro.xag.balance import (BalanceStats, _build_balanced,
                                   _collect_tree, _is_tree_root,
                                   _merged_level)

    words, mask, _ = equivalence_stimulus(xag.num_pis)
    po_before = simulate_words(xag, words, mask)
    stats = BalanceStats(ands_before=xag.num_ands, xors_before=xag.num_xors,
                         depth_before=multiplicative_depth(xag))
    for _ in range(max_passes):
        stats.passes += 1
        rebuilt = 0
        roots = [node for node in xag.topological_order()
                 if xag.is_gate(node) and _is_tree_root(xag, node)]
        for root in roots:
            if xag.is_dead(root):
                continue
            operands, parity = _collect_tree(xag, root)
            stats.trees_examined += 1
            if len(operands) < 3:
                continue
            is_and = xag.is_and(root)
            levels = node_levels(xag, and_only=is_and)
            operand_levels = [levels[lit >> 1] for lit in operands]
            if _merged_level(operand_levels, 1) >= levels[root]:
                continue
            op = xag.create_and if is_and else xag.create_xor
            new_lit = _build_balanced(xag, operands, operand_levels, 1, op)
            new_lit ^= parity
            if (new_lit >> 1) == root:
                continue
            result = xag.substitute_node(root, new_lit)
            stats.trees_rebalanced += 1
            rebuilt += 1
            stats.substitutions += len(result.pairs)
        if not rebuilt:
            break
    stats.ands_after = xag.num_ands
    stats.xors_after = xag.num_xors
    stats.depth_after = multiplicative_depth(xag)
    stats.verified = simulate_words(xag, words, mask) == po_before
    return stats


def network_state(xag):
    """Everything balancing may change: fan-ins, kinds, POs, dead flags."""
    return (list(xag._kind), list(xag._fanin0), list(xag._fanin1),
            xag.po_literals(), bytes(xag._dead))


def complemented_xor_tree(width=10):
    """An XOR chain whose interior edges carry complements (the
    complement of each inverted leaf is pushed to the gate's output)."""
    xag = Xag()
    pis = xag.create_pis(width)
    acc = xag.create_and(pis[0], pis[1])
    for index, pi in enumerate(pis[2:]):
        acc = xag.create_xor(acc, lit_not(pi) if index % 2 else pi)
    xag.create_po(acc, "parity")
    return xag


def strash_merging_chain():
    """An AND chain whose balanced rebuild pairs ``c & d``, which already
    exists as a gate of its own (a second primary output)."""
    xag = Xag()
    a, b, c, d, e, f = xag.create_pis(6)
    shared = xag.create_and(c, d)
    acc = a
    for pi in (b, c, d, e, f):
        acc = xag.create_and(acc, pi)
    xag.create_po(acc, "all")
    xag.create_po(shared, "cd")
    return xag, lit_node(shared)


def balance_pin_networks():
    """The balancing pin corpus: 60 seeded random networks, the hand-built
    shapes above and four control circuits with many rebuilt trees."""
    networks = []
    for seed in range(60):
        rng = random.Random(seed)
        knobs = dict(num_pis=rng.randint(5, 10),
                     num_gates=rng.randint(30, 120),
                     num_pos=rng.randint(1, 3),
                     and_bias=rng.choice([0.6, 0.8, 1.0]),
                     not_probability=rng.choice([0.0, 0.2, 0.4]),
                     max_fanout=rng.choice([None, None, 1, 2]))
        xag = (seeded_xag(seed, **knobs) if seed % 2
               else random_xag(random.Random(seed), **knobs))
        networks.append((f"seed{seed}", xag))
    networks.append(("or_chain", or_chain()))
    networks.append(("complemented_xor_tree", complemented_xor_tree()))
    networks.append(("strash_merge", strash_merging_chain()[0]))
    networks.append(("and_chain", and_chain(16)))
    for builder in (C.voter, C.i2c_like, C.cavlc_like, C.router_like):
        networks.append((builder.__name__, builder()))
    return networks


def test_balance_matches_per_tree_level_reference():
    """Propagated levels change nothing: the balanced network and its
    ``BalanceStats`` equal the per-tree ``node_levels`` reference's."""
    rebuilt = 0
    for name, xag in balance_pin_networks():
        expected = xag.clone()
        reference = reference_balance(expected)
        stats = balance_in_place(xag)
        assert network_state(xag) == network_state(expected), name
        assert stats == reference, name
        rebuilt += stats.trees_rebalanced
    assert rebuilt > 250


def test_balance_rebuild_strash_merges_into_existing_gate():
    xag, shared = strash_merging_chain()
    original = xag.clone()
    fanout_before = xag.fanout_size(shared)
    stats = balance_in_place(xag)
    assert stats.trees_rebalanced == 1
    # the rebuilt tree reuses the existing ``c & d`` gate
    assert xag.fanout_size(shared) == fanout_before + 1
    assert xag.num_ands == original.num_ands - 1
    assert stats.depth_after == 3 < stats.depth_before == 5
    assert equivalent(original, xag)


def test_balance_levels_follow_every_rebuild(monkeypatch):
    """After every rebuilt tree the balancer's propagated AND and gate
    levels equal a fresh ``node_levels`` on every live node."""
    # ``repro.xag.balance`` is shadowed by the function of that name
    balance_module = importlib.import_module("repro.xag.balance")
    tracked = []

    class Recording(balance_module._BalanceLevels):
        def __init__(self, xag):
            super().__init__(xag)
            tracked.append(self)

    monkeypatch.setattr(balance_module, "_BalanceLevels", Recording)
    checks = 0
    for name, xag in balance_pin_networks():
        substitute = xag.substitute_node

        def checked(old, new_lit, xag=xag, substitute=substitute):
            nonlocal checks
            result = substitute(old, new_lit)
            # a clone: reading the network itself would warm its
            # topological-order cache and could change the pass order
            fresh = xag.clone()
            live = fresh.topological_order()
            for and_only, maintained in (
                    (True, tracked[-1].and_levels),
                    (False, tracked[-1].gate_levels)):
                levels = node_levels(fresh, and_only=and_only)
                assert [maintained[node] for node in live] == \
                    [levels[node] for node in live], (name, and_only)
            checks += 1
            return result

        xag.substitute_node = checked
        balance_in_place(xag)
    assert checks > 250


def test_balance_levels_see_construction_path_revivals():
    """A dead node revived by a gate constructor (not by a substitution)
    notifies the balancer's levels like any edit: its level is recomputed
    from fan-ins that got shallower while it was dead."""
    from repro.xag.balance import _BalanceLevels

    xag = Xag()
    p, q, r, s, x, y, d = xag.create_pis(7)
    h = xag.create_and(xag.create_and(p, q), s)     # level 2
    g = xag.create_and(h, r)                        # level 3
    deep = xag.create_and(x, g)                     # level 4
    xag.create_po(xag.create_xor(deep, y))
    xag.create_po(g)
    levels = _BalanceLevels(xag)
    top = lit_node(xag.po_literal(0))
    xag.substitute_node(top, y)                     # kills top and deep
    xag.substitute_node(lit_node(h), p)             # g drops to level 1
    assert xag.is_dead(lit_node(deep))
    xag.create_po(xag.create_and(deep, d))          # revives deep
    levels.grow()                                   # the appended AND
    fresh = node_levels(xag.clone(), and_only=True)
    for node in xag.topological_order():
        assert levels.and_levels[node] == fresh[node]
    assert levels.and_levels[lit_node(deep)] == 2
    assert levels.critical_level() == 3


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


def recipe_walk_level(plan, leaf_levels):
    """Oracle of ``plan.and_level``: walk the recipe once per query.

    Rep-input and output-correction XOR trees are depth-transparent (level
    = max over the selected leaves); each recipe AND adds one.
    """
    transform = plan.transform
    levels = {0: 0}
    recipe = plan.recipe
    for var, node in enumerate(recipe.pis()):
        row = transform.matrix[var]
        levels[node] = max(
            [leaf_levels[j] for j in range(plan.num_vars) if (row >> j) & 1],
            default=0)
    for node in recipe.gates():
        f0, f1 = recipe.fanins(node)
        levels[node] = max(levels[f0 >> 1], levels[f1 >> 1]) + \
            (1 if recipe.is_and(node) else 0)
    output = levels[recipe.po_literal(0) >> 1]
    correction = max(
        [leaf_levels[j] for j in range(plan.num_vars)
         if (transform.output_linear >> j) & 1],
        default=0)
    return max(output, correction)


def test_plan_level_terms_equal_recipe_walk():
    """Every plan of the EPFL control group converged under mc-depth: the
    per-plan terms give the recipe walk's level on 20 random leaf-level
    vectors and on all-zero leaves."""
    from repro.cuts.cache import CutFunctionCache
    from repro.engine.core import EngineConfig, run_circuit, select_cases

    config = EngineConfig(suites=("epfl",), groups=["control"],
                          objective="mc-depth", max_rounds=None)
    cut_cache = CutFunctionCache()
    reports = [run_circuit(case, config, cut_cache=cut_cache)
               for case in select_cases(config)]
    assert len(reports) == 10
    assert all(report.error is None for report in reports)
    plans = list(cut_cache._plans.values())
    assert len(plans) > 50
    rng = random.Random(7)
    for plan in plans:
        for _ in range(20):
            leaf_levels = [rng.randint(0, 12) for _ in range(plan.num_vars)]
            assert plan.and_level(leaf_levels) == \
                recipe_walk_level(plan, leaf_levels)
        assert plan.and_level([0] * plan.num_vars) == \
            recipe_walk_level(plan, [0] * plan.num_vars)


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
            estimate = plan.and_level(leaf_levels)
            assert estimate == recipe_walk_level(plan, leaf_levels)
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

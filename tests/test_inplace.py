"""In-place substitution core: invariants, events, and rewriter parity."""

import random

import pytest

from repro import kernels
from repro.testing import merge_entries, random_xag
from repro.circuits import arithmetic as A
from repro.circuits import control as C
from repro.cuts.cache import CutFunctionCache
from repro.cuts.enumeration import CutSetCache, cut_function, enumerate_cuts
from repro.rewriting import (CutRewriter, RewriteParams, optimize,
                             run_pipeline, standard_flow)
from repro.xag import (BitSimulator, LevelTracker, StructHashTracker,
                       balance_in_place, equivalent, is_swept,
                       multiplicative_depth, node_hashes, node_levels,
                       node_values, simulate_words, sweep)
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import Xag, lit_node, lit_not, literal


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def recount_fanouts(xag):
    """Ground-truth fan-out counts recomputed from the live structure."""
    counts = [0] * xag.num_nodes
    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        counts[lit_node(f0)] += 1
        counts[lit_node(f1)] += 1
    for lit in xag.po_literals():
        counts[lit_node(lit)] += 1
    return counts


def fanin_cone(xag, node):
    """Every node ``node`` depends on, dead ones included."""
    cone = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in cone:
            continue
        cone.add(n)
        if xag.is_gate(n):
            stack.extend(lit_node(lit) for lit in xag.fanins(n))
    return cone


def check_cut_memos(xag, cut_sets, functions):
    """The maintained cut sets and cone functions equal uncached ones."""
    fresh = enumerate_cuts(xag)
    assert cut_sets.cuts(xag) == merge_entries(xag, fresh)
    for node_cuts in fresh.values():
        for cut in node_cuts:
            assert functions.cone_function(xag, cut.root, cut.leaves) == \
                cut_function(xag, cut)


# ----------------------------------------------------------------------
# substitute_node semantics
# ----------------------------------------------------------------------
def test_substitute_rewires_fanouts_and_pos_with_complements():
    xag = Xag()
    a, b, c = xag.create_pis(3)
    t = xag.create_and(a, b)
    u = xag.create_xor(t, c)
    xag.create_po(lit_not(t), "inv")
    xag.create_po(u, "x")
    before = node_values(xag, [0b1010, 0b1100, 0b1111], 0b1111)
    po_before = [before[lit_node(l)] ^ (0b1111 if l & 1 else 0)
                 for l in xag.po_literals()]

    # replace t with an equivalent, structurally distinct construction:
    # a & b == a ^ b ^ (a | b) — the OR hashes to a different node.
    repl = xag.create_xor(xag.create_xor(a, b), xag.create_or(a, b))
    assert lit_node(repl) != lit_node(t)
    result = xag.substitute_node(lit_node(t), repl)
    assert (lit_node(t), repl) in result.pairs
    assert xag.is_dead(lit_node(t))

    after = node_values(xag, [0b1010, 0b1100, 0b1111], 0b1111)
    po_after = [after[lit_node(l)] ^ (0b1111 if l & 1 else 0)
                for l in xag.po_literals()]
    assert po_before == po_after
    assert xag.fanout_counts() == recount_fanouts(xag)


def test_substitute_by_constant_collapses_cone():
    xag = Xag()
    a, b, c = xag.create_pis(3)
    t = xag.create_and(a, b)
    u = xag.create_and(t, c)
    xag.create_po(u)
    result = xag.substitute_node(lit_node(t), xag.get_constant(False))
    # u = AND(FALSE, c) collapses to FALSE, driving the PO
    assert xag.po_literal(0) == 0
    assert xag.num_ands == 0
    assert lit_node(u) in result.killed and lit_node(t) in result.killed
    assert xag.fanout_counts() == recount_fanouts(xag)


def test_substitute_strash_merge_folds_duplicates():
    xag = Xag()
    a, b, c = xag.create_pis(3)
    t1 = xag.create_and(a, b)
    t2 = xag.create_and(a, c)
    u1 = xag.create_xor(t1, c)
    u2 = xag.create_xor(t2, c)
    xag.create_po(u1)
    xag.create_po(u2)
    # substituting t2 by t1 makes u2 structurally identical to u1
    xag.substitute_node(lit_node(t2), t1)
    assert xag.po_literal(0) == xag.po_literal(1)
    assert xag.fanout_counts() == recount_fanouts(xag)


def test_substitute_rejects_non_gates_and_dead_nodes():
    xag = Xag()
    a, b = xag.create_pis(2)
    t = xag.create_and(a, b)
    xag.create_po(t)
    with pytest.raises(ValueError):
        xag.substitute_node(lit_node(a), b)
    xag.substitute_node(lit_node(t), a)
    assert xag.is_dead(lit_node(t))
    with pytest.raises(ValueError):
        xag.substitute_node(lit_node(t), b)


def test_take_out_node_and_revive_through_reference():
    xag = Xag()
    a, b = xag.create_pis(2)
    t = xag.create_and(a, b)  # never referenced
    xag.create_po(a)
    killed = xag.take_out_node(lit_node(t))
    assert killed == [lit_node(t)]
    assert xag.num_ands == 0 and xag.is_dead(lit_node(t))
    # referencing the dead literal revives the node
    u = xag.create_xor(t, b)
    xag.create_po(u)
    assert not xag.is_dead(lit_node(t))
    assert xag.num_ands == 1
    assert xag.fanout_counts() == recount_fanouts(xag)


def test_rollback_across_substitution_is_rejected():
    xag = Xag()
    a, b, c = xag.create_pis(3)
    t = xag.create_and(a, b)
    xag.create_po(xag.create_xor(t, c))
    checkpoint = xag.checkpoint()
    xag.substitute_node(lit_node(t), a)
    with pytest.raises(ValueError):
        xag.rollback(checkpoint)
    # a checkpoint taken after the edit still works (speculative growth
    # only — rolled-back nodes must not be referenced by POs, as always)
    checkpoint2 = xag.checkpoint()
    xag.create_and(xag.create_xor(a, c), b)
    xag.rollback(checkpoint2)
    assert xag.fanout_counts() == recount_fanouts(xag)


# ----------------------------------------------------------------------
# property test: random substitute/rollback sequences (satellite)
# ----------------------------------------------------------------------
def test_fanout_refcount_and_simulation_invariants_under_random_edits():
    """After random substitute_node/rollback sequences the maintained
    fan-out counts must equal a from-scratch recount, the subscribed
    simulator must agree with a fresh full simulation, and the cut-set and
    cone-function memos must agree with uncached recomputation.  The memos
    are read every third step only, so the edits they record span several
    substitutions, constant collapses, kill-then-revive and rollback events
    before they are expanded."""
    revivals = 0
    for seed in range(8):
        rng = random.Random(seed)
        xag = random_xag(rng, num_pis=5, num_gates=30, and_bias=0.6)
        words, mask, _ = equivalence_stimulus(xag.num_pis)
        sim = BitSimulator(xag, words, mask)
        sim.sync()
        cut_sets = CutSetCache()
        functions = CutFunctionCache()
        check_cut_memos(xag, cut_sets, functions)

        for step in range(12):
            action = rng.random()
            live_gates = [n for n in xag.gates()]
            dead_gates = [n for n in range(xag.num_nodes)
                          if xag.is_gate(n) and xag.is_dead(n)]
            if action < 0.15 and live_gates and dead_gates:
                # redirect a live gate onto a dead one: revives it (and its
                # dead fan-in cone) after an earlier substitution killed it
                node = rng.choice(live_gates)
                revivable = [d for d in dead_gates
                             if node not in fanin_cone(xag, d)]
                if revivable:
                    xag.substitute_node(node, literal(rng.choice(revivable),
                                                      rng.random() < 0.5))
                    revivals += 1
            elif action < 0.55 and live_gates:
                # redirect a random gate to a random non-cycle literal
                # (exercises rewires, complement handling, cascades, GC)
                node = rng.choice(live_gates)
                # a replacement inside the node's transitive fanout would
                # create a combinational cycle (caller contract)
                forbidden = xag.transitive_fanout([node])
                candidates = [n for n in xag.topological_order()
                              if n != node and not xag.is_constant(n)
                              and n not in forbidden]
                if not candidates:
                    continue
                repl = literal(rng.choice(candidates), rng.random() < 0.5)
                xag.substitute_node(node, repl)
            elif action < 0.8 and live_gates:
                # substitute by a constant: collapses the fan-out cone
                node = rng.choice(live_gates)
                xag.substitute_node(node, rng.randint(0, 1))
            else:
                # speculative growth undone by rollback
                checkpoint = xag.checkpoint()
                pis = xag.pi_literals()
                extra = xag.create_and(xag.create_xor(rng.choice(pis), rng.choice(pis)),
                                       rng.choice(pis))
                sim.sync()
                xag.rollback(checkpoint)

            # invariant 1: maintained refcounts == recomputed
            assert xag.fanout_counts() == recount_fanouts(xag), f"seed {seed} step {step}"
            # invariant 2: subscribed simulator == fresh simulation
            assert sim.po_words() == simulate_words(xag, words, mask), \
                f"seed {seed} step {step}"
            # invariant 3: topological order is valid (fan-ins first)
            seen = set()
            for n in xag.topological_order():
                if xag.is_gate(n):
                    f0, f1 = xag.fanins(n)
                    assert lit_node(f0) in seen and lit_node(f1) in seen
                seen.add(n)
            # invariant 4: cut sets and cone functions match uncached ones
            if step % 3 == 2:
                check_cut_memos(xag, cut_sets, functions)
    assert revivals > 0


def test_maintained_levels_under_random_edit_and_balance_sequences():
    """Maintained AND-levels must equal a fresh ``node_levels`` recompute
    after random substitute/rollback/balance sequences (satellite)."""
    for seed in range(6):
        rng = random.Random(1000 + seed)
        xag = random_xag(rng, num_pis=5, num_gates=30, and_bias=0.7)
        and_tracker = LevelTracker(xag, and_only=True)
        gate_tracker = LevelTracker(xag, and_only=False)
        and_tracker.sync()
        gate_tracker.sync()

        for step in range(10):
            action = rng.random()
            live_gates = list(xag.gates())
            if action < 0.4 and live_gates:
                node = rng.choice(live_gates)
                forbidden = xag.transitive_fanout([node])
                candidates = [n for n in xag.topological_order()
                              if n != node and not xag.is_constant(n)
                              and n not in forbidden]
                if not candidates:
                    continue
                xag.substitute_node(node, literal(rng.choice(candidates),
                                                  rng.random() < 0.5))
            elif action < 0.55 and live_gates:
                xag.substitute_node(rng.choice(live_gates), rng.randint(0, 1))
            elif action < 0.75:
                checkpoint = xag.checkpoint()
                pis = xag.pi_literals()
                xag.create_and(xag.create_xor(rng.choice(pis), rng.choice(pis)),
                               rng.choice(pis))
                and_tracker.sync()
                xag.rollback(checkpoint)
            else:
                balance_in_place(xag, verify=True)

            for and_only, tracker in ((True, and_tracker),
                                      (False, gate_tracker)):
                fresh = node_levels(xag, and_only=and_only)
                maintained = tracker.levels()
                for node in xag.topological_order():
                    assert maintained[node] == fresh[node], \
                        f"seed {seed} step {step} node {node} and_only {and_only}"


@pytest.mark.parametrize("backend_name", [
    "python",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not kernels.numpy_available(),
        reason="numpy backend not importable")),
])
def test_maintained_hashes_under_random_edit_and_balance_sequences(backend_name):
    """Maintained structural hashes must equal a fresh ``node_hashes``
    recompute after random substitute/rollback/balance sequences — the same
    discipline the level tracker pins, on both kernel backends (satellite)."""
    total_full = total_incremental = 0
    with kernels.use_backend(backend_name):
        for seed in range(6):
            rng = random.Random(2000 + seed)
            xag = random_xag(rng, num_pis=5, num_gates=30, and_bias=0.6)
            tracker = StructHashTracker(xag)
            tracker.sync()

            for step in range(10):
                action = rng.random()
                live_gates = list(xag.gates())
                if action < 0.4 and live_gates:
                    node = rng.choice(live_gates)
                    forbidden = xag.transitive_fanout([node])
                    candidates = [n for n in xag.topological_order()
                                  if n != node and not xag.is_constant(n)
                                  and n not in forbidden]
                    if not candidates:
                        continue
                    xag.substitute_node(node, literal(rng.choice(candidates),
                                                      rng.random() < 0.5))
                elif action < 0.55 and live_gates:
                    xag.substitute_node(rng.choice(live_gates),
                                        rng.randint(0, 1))
                elif action < 0.75:
                    checkpoint = xag.checkpoint()
                    pis = xag.pi_literals()
                    xag.create_and(
                        xag.create_xor(rng.choice(pis), rng.choice(pis)),
                        rng.choice(pis))
                    tracker.sync()
                    xag.rollback(checkpoint)
                else:
                    balance_in_place(xag, verify=True)

                fresh = node_hashes(xag)
                maintained = tracker.hashes()
                for node in xag.topological_order():
                    assert maintained[node] == fresh[node], \
                        f"seed {seed} step {step} node {node}"
            total_full += tracker.full_updates
            total_incremental += tracker.incremental_updates
    # the sequences must exercise both maintenance paths
    assert total_full >= 1
    assert total_incremental >= 1


def test_construction_path_revive_notifies_observers():
    """Reviving a dead node via create_* must invalidate stale sim words."""
    xag = Xag()
    a, b, c, d = xag.create_pis(4)
    t = xag.create_and(a, b)
    u = xag.create_xor(t, c)
    xag.create_po(u)
    words, mask, _ = equivalence_stimulus(xag.num_pis)
    sim = BitSimulator(xag, words, mask)
    sim.sync()
    xag.substitute_node(lit_node(t), d)      # rewires u
    xag.substitute_node(lit_node(u), a)      # kills u
    assert xag.is_dead(lit_node(u))
    # referencing the dead literal revives it — the simulator must see it
    xag.create_po(xag.create_and(u, c))
    assert sim.po_words() == simulate_words(xag, words, mask)
    # and a checkpoint taken before the revive is no longer rollback-able
    xag2 = Xag()
    p, q = xag2.create_pis(2)
    t2 = xag2.create_and(p, q)
    xag2.create_po(xag2.create_xor(t2, p))
    xag2.substitute_node(lit_node(t2), q)
    checkpoint = xag2.checkpoint()
    xag2.create_po(xag2.create_and(t2, p))   # revives t2
    with pytest.raises(ValueError):
        xag2.rollback(checkpoint)


def test_in_place_flow_result_is_swept():
    """Plan-insertion orphans and dead slots are compacted by the flow."""
    for builder in (C.int_to_float, lambda: C.priority_encoder(16)):
        xag = builder()
        result = optimize(xag)
        assert is_swept(result.final)
        assert result.final.num_dead == 0


# ----------------------------------------------------------------------
# observer invalidation
# ----------------------------------------------------------------------
def test_cut_function_cache_survives_unrelated_substitution():
    xag = Xag()
    a, b, c, d = xag.create_pis(4)
    left = xag.create_and(xag.create_xor(a, b), b)
    right = xag.create_and(xag.create_xor(c, d), d)
    xag.create_po(left)
    xag.create_po(right)
    cache = CutFunctionCache()
    t_left = cache.cone_function(xag, lit_node(left), (lit_node(a), lit_node(b)))
    t_right = cache.cone_function(xag, lit_node(right), (lit_node(c), lit_node(d)))
    misses = cache.function_misses

    # substituting in the right cone must not evict the left memo entry;
    # c ^ d == (c | d) & ~(c & d) is a structurally distinct equivalent.
    right_xor = next(lit_node(f) for f in xag.fanins(lit_node(right))
                     if xag.is_gate(lit_node(f)))
    repl = xag.create_and(xag.create_or(c, d), lit_not(xag.create_and(c, d)))
    assert lit_node(repl) != right_xor
    xag.substitute_node(right_xor, repl)
    assert cache.cone_function(xag, lit_node(left), (lit_node(a), lit_node(b))) == t_left
    assert cache.function_misses == misses  # served from the memo


def test_simulation_cache_entry_stays_valid_across_rewrites():
    xag = C.int_to_float()
    words, mask, _ = equivalence_stimulus(xag.num_pis)
    rewriter = CutRewriter(params=RewriteParams(verify=True))
    working = sweep(xag)
    if working is xag:
        working = xag.clone()
    sim = rewriter.sim_cache.simulator(working, words, mask)
    po_initial = list(sim.po_words())
    stats, _pre = rewriter.rewrite_in_place(working)
    assert stats.rewrites_applied > 0
    # the same simulator object served the round and stayed consistent
    assert rewriter.sim_cache.simulator(working, words, mask) is sim
    assert sim.po_words() == po_initial == simulate_words(working, words, mask)


def test_cut_set_cache_recomputes_only_dirty_fanout():
    xag = C.priority_encoder(16)
    cache = CutSetCache(cut_size=4, cut_limit=8)
    first = cache.cuts(xag)
    assert first == merge_entries(xag, enumerate_cuts(xag, cut_size=4,
                                                      cut_limit=8))
    full_cost = cache.nodes_recomputed

    rewriter = CutRewriter(params=RewriteParams(cut_size=4, cut_limit=8,
                                                verify=False))
    working = xag.clone()
    cache2 = CutSetCache(cut_size=4, cut_limit=8)
    cache2.cuts(working)
    baseline = cache2.nodes_recomputed
    rewriter.rewrite_in_place(working)
    cache2.cuts(working)
    # identical algorithm, incremental recomputation
    assert cache2.cuts(working) == merge_entries(
        working, enumerate_cuts(working, cut_size=4, cut_limit=8))
    assert cache2.nodes_recomputed - baseline <= baseline


def test_cut_set_cache_cutoff_stops_where_cut_sets_stop_changing():
    """A 19-gate AND/XOR chain ``g1 .. g19`` over ``x0 .. x19`` with
    4-leaf cuts: a cut of ``g_k`` reaches at most three gates down, so
    rewiring ``g2`` from ``g1`` onto the spare input ``z`` changes the cut
    sets of ``g2``, ``g3`` and ``g4`` only.  The whole chain above ``g1`` is
    the edited closure, but the walk merges just ``g2`` (edited), ``g3`` and
    ``g4`` (a fan-in's entry changed) and ``g5`` (merged, found equal), and
    every entry from ``g5`` up stays the same list object."""
    xag = Xag()
    pis = xag.create_pis(21)
    acc = xag.create_and(pis[0], pis[1])
    chain = [lit_node(acc)]
    for index, pi in enumerate(pis[2:-1], start=2):
        acc = (xag.create_xor if index % 2 == 0 else xag.create_and)(acc, pi)
        chain.append(lit_node(acc))
    xag.create_po(acc, "y")
    cache = CutSetCache(cut_size=4, cut_limit=8)
    before = dict(cache.cuts(xag))
    merges = cache.nodes_recomputed
    assert merges == len(chain) == 19

    result = xag.substitute_node(chain[0], pis[-1])
    assert result.dirty == {chain[1]} and result.killed == [chain[0]]
    closure = xag.edited_closure(result.dirty | set(result.killed))
    after = cache.cuts(xag)
    assert after == merge_entries(xag, enumerate_cuts(xag, cut_size=4,
                                                      cut_limit=8))
    assert cache.nodes_recomputed - merges == 4 < len(closure) == 19
    assert chain[0] not in after
    assert [after[gate] is before[gate] for gate in chain[1:]] == \
        [False] * 3 + [True] * 15


# ----------------------------------------------------------------------
# rewriter parity and flow behaviour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("builder, pinned", [
    pytest.param(C.int_to_float, (70, 71, 15, 5), id="int_to_float"),
    pytest.param(lambda: C.priority_encoder(16), (75, 46, 16, 5),
                 id="priority_encoder16"),
    pytest.param(lambda: A.adder(8), (8, 43, 8, 2), id="adder8"),
])
def test_in_place_flow_pins(builder, pinned):
    """(ANDs, XORs, depth, rounds) of the convergence flow, pinned."""
    xag = builder()
    result = optimize(xag)
    final = result.final
    assert equivalent(xag, final)
    assert (final.num_ands, final.num_xors, multiplicative_depth(final),
            len(result.rounds)) == pinned


def test_in_place_flow_reports_rounds():
    xag = C.int_to_float()
    result = optimize(xag)
    assert all(s.nodes_considered > 0 for s in result.rounds)
    assert sum(s.substitutions for s in result.rounds) > 0
    assert all(s.verified for s in result.rounds)
    assert result.converged


def test_paper_flow_in_place_pins():
    xag = C.priority_encoder(16)
    flow = run_pipeline(xag, standard_flow("mc"))
    assert flow.passes[0].ands_after == 81
    assert (flow.final.num_ands, flow.final.num_xors) == (75, 46)
    assert equivalent(xag, flow.final)


def test_rewrite_does_not_mutate_input():
    xag = C.int_to_float()
    snapshot = xag.clone()
    rewriter = CutRewriter()
    improved, stats = rewriter.rewrite(xag)
    assert xag.num_ands == snapshot.num_ands
    assert xag.num_nodes == snapshot.num_nodes
    assert improved.num_ands <= xag.num_ands
    # every live gate examined
    assert stats.nodes_considered == stats.ands_before + stats.xors_before


# ----------------------------------------------------------------------
# sweep fast path and full map (satellite)
# ----------------------------------------------------------------------
def test_sweep_returns_input_when_nothing_to_remove():
    xag = A.adder(4)
    assert is_swept(xag)
    assert sweep(xag) is xag


def test_sweep_copies_when_dead_or_unreferenced():
    xag = Xag()
    a, b = xag.create_pis(2)
    xag.create_and(a, b)               # unreferenced gate
    xag.create_po(xag.create_xor(a, b))
    assert not is_swept(xag)
    swept = sweep(xag)
    assert swept is not xag
    assert swept.num_ands == 0 and swept.num_xors == 1


def test_sweep_with_map_covers_every_surviving_gate():
    from repro.xag import sweep_with_map

    xag = Xag()
    a, b, c = xag.create_pis(3)
    t = xag.create_and(a, b)
    u = xag.create_xor(t, c)            # XOR chains may carry complements
    v = xag.create_xnor(u, a)           # complemented PO driver
    dead = xag.create_and(a, c)         # unreachable
    xag.create_po(v, "out")
    xag.create_po(lit_not(t), "neg")

    swept, node_map = sweep_with_map(xag)
    assert equivalent(xag, swept)
    # every reachable node is mapped: constant, PIs and both gates
    for node in (0, lit_node(a), lit_node(b), lit_node(c),
                 lit_node(t), lit_node(u)):
        assert node in node_map
    assert lit_node(dead) not in node_map
    # the mapped literals implement the same functions (complement-correct)
    old_values = node_values(xag, [0b10101010, 0b11001100, 0b11110000], 0xFF)
    new_values = node_values(swept, [0b10101010, 0b11001100, 0b11110000], 0xFF)
    for old_node, new_lit in node_map.items():
        expected = old_values[old_node]
        got = new_values[lit_node(new_lit)] ^ (0xFF if new_lit & 1 else 0)
        assert got == expected, f"node {old_node} mapped to {new_lit}"

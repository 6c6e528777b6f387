"""Pass-pipeline architecture: context, passes, flow scripts, parity.

The parity golden numbers were captured from the hand-rolled convergence
drains that preceded the pass pipeline, on the EPFL control group with
``RewriteParams()`` defaults and ``max_rounds=3``; ``standard_flow("mc")``
and ``optimize`` must reproduce them exactly.  The depth flow's guarded-mc
stage stopped restarting per round (it keeps one working network and its
maintained caches), so its bar is *no regression* of the ``(ANDs, depth)``
pair instead of exact equality (see ``benchmarks/results/depth_flow.md``
for the re-measured table).
"""

import random

import pytest

from repro.testing import merge_entries, random_xag
from repro.circuits import control as C
from repro.cuts.cache import CutFunctionCache
from repro.cuts.enumeration import enumerate_cuts
from repro.engine import EngineConfig
from repro.engine.core import run_batch, run_circuit, select_cases
from repro.mc import McDatabase
from repro.rewriting import (BalancePass, CutRewriter, DepthGuard,
                             FlowSummary, OptimizationContext, PassResult,
                             PipelineResult, Repeat, RewriteParams,
                             RewritePass, SizeBaselinePass, SweepPass,
                             optimize, parse_flow, run_pipeline,
                             standard_flow)
from repro.rewriting.pipeline import _live_counts
from repro.xag import (BitSimulator, Xag, equivalent, multiplicative_depth,
                       node_levels)
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import FALSE, TRUE, lit_node

#: pre-pipeline (ANDs after one round, ANDs at convergence, depth, rounds)
#: of the paper flow, plus (ANDs, rounds) of optimize, with RewriteParams()
#: defaults and max_rounds=3 — captured before the pipeline refactor.
PAPER_GOLDEN = {
    "arbiter":   (133, 133, 21, 2, 133, 1),
    "alu_ctrl":  (30, 30, 5, 2, 30, 2),
    "cavlc":     (94, 82, 12, 3, 82, 3),
    "decoder":   (92, 92, 3, 2, 92, 1),
    "i2c":       (224, 224, 10, 2, 224, 2),
    "int2float": (75, 71, 15, 3, 71, 3),
    "mem_ctrl":  (249, 249, 10, 2, 249, 2),
    "priority":  (201, 196, 32, 3, 196, 3),
    "router":    (61, 61, 6, 2, 61, 2),
    "voter":     (57, 57, 5, 2, 57, 1),
}

#: pre-pipeline depth flow (ANDs, depth) pairs on the fast control circuits
#: (same parameters, max_iterations=4) — the in-place guarded stage may
#: only match or improve these.
DEPTH_GOLDEN = {
    "arbiter": (120, 18),
    "alu_ctrl": (28, 5),
    "int2float": (70, 15),
    "router": (61, 5),
    "voter": (57, 5),
}

#: (ANDs after the baseline, ANDs, XORs, depth, rounds incl. the baseline's)
#: of ``--suite epfl --groups control --rounds 0 --size-baseline``, with the
#: baseline's rounds applied in place after one sweep.
SIZE_BASELINE_GOLDEN = {
    "arbiter":   (133, 133, 32, 21, 3),
    "alu_ctrl":  (32, 31, 8, 5, 5),
    "cavlc":     (93, 81, 10, 12, 7),
    "decoder":   (92, 92, 0, 3, 3),
    "i2c":       (227, 224, 13, 10, 3),
    "int2float": (74, 71, 66, 15, 6),
    "mem_ctrl":  (254, 249, 20, 10, 4),
    "priority":  (197, 195, 134, 32, 6),
    "router":    (61, 61, 5, 6, 4),
    "voter":     (57, 57, 223, 5, 3),
}

_DB = McDatabase()
_CUT_CACHE = CutFunctionCache(_DB)


def _control_case(name):
    return select_cases(EngineConfig(suites=("epfl",), circuits=[name]))[0]


# ----------------------------------------------------------------------
# pre-pipeline parity (EPFL control group)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PAPER_GOLDEN))
def test_pipeline_aliases_match_prerefactor_golden(name):
    one_ands, conv_ands, conv_depth, rounds, opt_ands, opt_rounds = \
        PAPER_GOLDEN[name]
    xag = _control_case(name).build()
    flow = run_pipeline(xag, standard_flow("mc", max_rounds=3),
                        params=RewriteParams(), cut_cache=_CUT_CACHE)
    assert flow.passes[0].name == "one-round"
    assert flow.passes[0].ands_after == one_ands
    assert flow.final.num_ands == conv_ands
    assert multiplicative_depth(flow.final) == conv_depth
    assert len(flow.rounds) == rounds
    assert flow.verified is True

    opt = optimize(xag, params=RewriteParams(), max_rounds=3,
                   cut_cache=_CUT_CACHE)
    assert opt.final.num_ands == opt_ands
    assert len(opt.rounds) == opt_rounds


@pytest.mark.parametrize("name", sorted(DEPTH_GOLDEN))
def test_depth_flow_never_regresses_prerefactor_pairs(name):
    """In-place depth flow: (ANDs, depth) no worse than before."""
    golden_ands, golden_depth = DEPTH_GOLDEN[name]
    xag = _control_case(name).build()
    flow = run_pipeline(
        xag, standard_flow("mc-depth", max_rounds=3, max_iterations=4),
        params=RewriteParams(objective="mc-depth"),
        cut_cache=_CUT_CACHE)
    assert flow.final.num_ands <= golden_ands
    assert flow.depth_after <= golden_depth
    assert equivalent(xag, flow.final)


# ----------------------------------------------------------------------
# shared-context cache coherence (property test)
# ----------------------------------------------------------------------
def _random_passes(rng):
    pool = [
        lambda: BalancePass(),
        lambda: SweepPass(),
        lambda: RewritePass("mc", max_rounds=1),
        lambda: RewritePass("mc-depth", max_rounds=1),
        lambda: RewritePass("size", max_rounds=1),
        lambda: DepthGuard(RewritePass("mc", max_rounds=2)),
        lambda: Repeat([BalancePass(), RewritePass("mc-depth", max_rounds=1)],
                       max_iterations=2),
    ]
    return [rng.choice(pool)() for _ in range(rng.randint(2, 5))]


@pytest.mark.parametrize("seed", [1, 5, 9, 23])
def test_shared_context_caches_match_fresh_after_pass_sequences(seed):
    """After an arbitrary pass sequence over one shared context, every
    maintained structure must agree with a from-scratch recomputation on
    the final working network."""
    rng = random.Random(seed)
    xag = random_xag(rng, num_pis=6, num_gates=45, and_bias=0.6)
    ctx = OptimizationContext(xag, params=RewriteParams(cut_size=4,
                                                        cut_limit=6))
    for pass_ in _random_passes(rng):
        pass_.run(ctx)
    network = ctx.network

    # the flow never changed the function
    assert equivalent(xag, ctx.finish())

    # maintained AND-levels == fresh recomputation (live nodes)
    tracker = ctx.levels.tracker(network)
    fresh_levels = node_levels(network, and_only=True)
    for node in network.topological_order():
        assert tracker.levels()[node] == fresh_levels[node]

    # the context's verification simulator == a fresh simulator
    words, mask, _ = equivalence_stimulus(network.num_pis)
    cached_sim = ctx.sim_cache.simulator(network, words, mask)
    fresh_sim = BitSimulator(network.clone(), words, mask)
    assert cached_sim.po_words() == fresh_sim.po_words()

    # incrementally maintained cut sets == one-shot enumeration (leaves,
    # table and AND bit of every kept cut, in order)
    cached_cuts = ctx.cut_sets.cuts(network)
    fresh_cuts = merge_entries(
        network, enumerate_cuts(network, cut_size=4, cut_limit=6))
    assert cached_cuts == fresh_cuts
    live_gates = [node for node in network.topological_order()
                  if network.is_gate(node)]

    # memoised cone functions == fresh simulation of the same cones
    fresh_cache = CutFunctionCache()
    checked = 0
    for node in live_gates[-10:]:
        for leaves, _table, _has_and in cached_cuts[node][:2]:
            if len(leaves) < 2 or node in leaves:
                continue
            assert ctx.cut_cache.cone_function(network, node, leaves) == \
                fresh_cache.cone_function(network, node, leaves)
            checked += 1
    assert checked > 0


def test_pipeline_never_mutates_the_input():
    """A rewrite round that makes no progress followed by a mutating pass
    (balance) must leave the caller's network untouched: the working
    network is an owned copy."""
    xag = Xag()
    pis = xag.create_pis(8)
    acc = pis[0]
    for pi in pis[1:]:
        acc = xag.create_and(acc, pi)
    xag.create_po(acc, "all")
    depth_before = multiplicative_depth(xag)
    result = run_pipeline(xag, parse_flow("mc,balance"))
    assert multiplicative_depth(xag) == depth_before, \
        "run_pipeline mutated the caller's input network"
    assert result.final is not xag
    assert equivalent(xag, result.final)
    assert result.depth_after < depth_before  # balance still did its job


# ----------------------------------------------------------------------
# flow scripts
# ----------------------------------------------------------------------
def test_parse_flow_paper_pipeline():
    passes = parse_flow("mc,mc*")
    assert [type(p) for p in passes] == [RewritePass, RewritePass]
    assert passes[0].max_rounds == 1
    assert passes[1].max_rounds is None
    assert passes[1].objective == "mc"


def test_parse_flow_depth_pipeline():
    passes = parse_flow("repeat:4(balance, guard(mc*), mc-depth*2)")
    assert len(passes) == 1
    repeat = passes[0]
    assert isinstance(repeat, Repeat)
    assert repeat.max_iterations == 4
    balance, guard, rewrite = repeat.passes
    assert isinstance(balance, BalancePass)
    assert isinstance(guard, DepthGuard)
    assert guard.inner.objective == "mc"
    assert guard.inner.max_rounds is None
    assert isinstance(rewrite, RewritePass)
    assert rewrite.objective == "mc-depth"
    assert rewrite.max_rounds == 2


def test_parse_flow_structural_steps():
    passes = parse_flow("baseline,sweep,balance,size*3")
    assert [type(p) for p in passes] == \
        [SizeBaselinePass, SweepPass, BalancePass, RewritePass]
    assert passes[3].objective == "size"
    assert passes[3].max_rounds == 3


@pytest.mark.parametrize("script", [
    "", "bogus", "mc,,mc", "guard(balance)", "balance*", "repeat(mc",
    "repeat:0(mc)", "mc)", "mc*0", "guard(mc", "repeat:x(mc)",
])
def test_parse_flow_rejects_bad_scripts(script):
    with pytest.raises(ValueError, match="flow script"):
        parse_flow(script)


def test_custom_flow_end_to_end_stays_equivalent():
    xag = C.priority_encoder(16)
    result = run_pipeline(xag, parse_flow("balance,mc*2,mc-depth*"),
                          params=RewriteParams(objective="mc-depth"),
                          cut_cache=_CUT_CACHE)
    assert equivalent(xag, result.final)
    assert result.depth_after <= result.depth_before
    assert result.final.num_ands <= xag.num_ands
    assert result.verified is True


# ----------------------------------------------------------------------
# result-type deduplication (FlowSummary base)
# ----------------------------------------------------------------------
def test_result_types_share_flow_summary_base():
    from repro.engine.core import CircuitReport

    for result_type in (PipelineResult, PassResult, CircuitReport):
        assert issubclass(result_type, FlowSummary)
        for prop in ("and_improvement", "depth_improvement", "converged"):
            assert getattr(result_type, prop) is getattr(FlowSummary, prop)


def test_flow_summary_arithmetic_on_each_result_type():
    xag = C.int_to_float()
    flow = optimize(xag, max_rounds=2, cut_cache=_CUT_CACHE)
    assert 0.0 < flow.and_improvement < 1.0
    paper = run_pipeline(xag, standard_flow("mc", max_rounds=2),
                         cut_cache=_CUT_CACHE)
    assert paper.and_improvement == \
        1.0 - paper.final.num_ands / paper.initial.num_ands
    depth = run_pipeline(
        xag, standard_flow("mc-depth", max_rounds=1, max_iterations=2),
        params=RewriteParams(objective="mc-depth"),
        cut_cache=_CUT_CACHE)
    assert depth.depth_improvement >= 0.0
    assert depth.ands_before == xag.num_ands


def test_size_baseline_pass_keeps_behaviour():
    """The baseline rebases the pipeline: ``initial`` is its output, so the
    input network is the reference for the size comparison."""
    xag = C.priority_encoder(8)
    result = run_pipeline(xag, [SizeBaselinePass(max_rounds=2)],
                          cut_cache=_CUT_CACHE)
    before = xag.num_ands + xag.num_xors
    after = result.final.num_ands + result.final.num_xors
    assert after <= before
    assert result.initial is result.final
    assert equivalent(xag, result.final)


def test_size_baseline_pins_on_the_control_group():
    batch = run_batch(EngineConfig(suites=("epfl",), groups=["control"],
                                   size_baseline=True, max_rounds=None))
    assert not batch.failed
    measured = {report.name: (report.ands_before, report.ands_after,
                              report.xors_after, report.depth_after,
                              len(report.rounds))
                for report in batch.reports}
    assert measured == SIZE_BASELINE_GOLDEN
    assert all(report.verified for report in batch.reports)


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def test_run_circuit_zero_round_flow_reports_verified_none():
    """Regression: ``verified`` was ``all([])`` — vacuously True — when a
    flow produced zero rounds.  A run that never checked equivalence must
    report None (not attempted), not a passed check."""
    case = _control_case("int2float")
    report = run_circuit(case, EngineConfig(circuits=["int2float"],
                                            flow="sweep"))
    assert report.error is None
    assert report.rounds == []
    assert report.verified is None


def test_run_circuit_custom_flow_matches_objective_flow():
    case = _control_case("int2float")
    legacy = run_circuit(case, EngineConfig(circuits=["int2float"],
                                            max_rounds=2))
    custom = run_circuit(case, EngineConfig(circuits=["int2float"],
                                            flow="mc,mc*1", max_rounds=2))
    assert custom.error is None and legacy.error is None
    assert (custom.ands_after, custom.xors_after, custom.depth_after) == \
        (legacy.ands_after, legacy.xors_after, legacy.depth_after)
    assert len(custom.rounds) == len(legacy.rounds)
    assert custom.verified is True


def test_run_circuit_custom_flow_honours_size_baseline():
    """--size-baseline combined with --flow prepends a baseline step."""
    case = _control_case("router")
    report = run_circuit(case, EngineConfig(circuits=["router"],
                                            flow="mc*1", size_baseline=True))
    assert report.error is None
    assert report.baseline_seconds > 0.0
    assert report.rounds[0].objective == "size"
    plain = run_circuit(case, EngineConfig(circuits=["router"], flow="mc*1"))
    assert plain.baseline_seconds == 0.0
    assert all(stats.objective == "mc" for stats in plain.rounds)


def test_mid_flow_baseline_keeps_initial_reference_intact():
    """Regression: a baseline step after other passes rebased ``initial``
    onto the mutable working network, so later in-place passes rewrote the
    "Initial" reference and before-statistics collapsed onto the final
    counts."""
    xag = C.int_to_float()
    result = run_pipeline(xag, parse_flow("mc,baseline,mc*"),
                          params=RewriteParams(), cut_cache=_CUT_CACHE)
    assert result.final is not result.initial
    assert result.initial.num_ands > result.final.num_ands
    assert result.and_improvement > 0.0
    assert equivalent(xag, result.final)
    final = result.final
    assert (final.num_ands, final.num_xors, multiplicative_depth(final),
            len(result.rounds)) == (70, 66, 15, 7)


def test_size_baseline_not_duplicated_for_nested_baseline_step():
    from repro.engine.core import build_pipeline
    from repro.rewriting import SizeBaselinePass

    passes = build_pipeline(EngineConfig(flow="repeat:2(baseline,mc*1)",
                                         size_baseline=True))
    assert len(passes) == 1 and isinstance(passes[0], Repeat)
    prepended = build_pipeline(EngineConfig(flow="mc*1", size_baseline=True))
    assert isinstance(prepended[0], SizeBaselinePass)


def test_run_batch_rejects_bad_flow_script():
    with pytest.raises(ValueError, match="flow script"):
        run_batch(EngineConfig(circuits=["int2float"], flow="warp-speed"))


def method_call_live_counts(xag):
    """(AND, XOR) counts of the PO-reachable cone through the public
    accessors: the oracle of ``_live_counts``."""
    seen = set()
    stack = [lit_node(lit) for lit in xag.po_literals()]
    ands = xors = 0
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if not xag.is_gate(node):
            continue
        if xag.is_and(node):
            ands += 1
        else:
            xors += 1
        f0, f1 = xag.fanins(node)
        stack.append(f0 >> 1)
        stack.append(f1 >> 1)
    return ands, xors


def test_live_counts_match_the_method_call_walk():
    networks = []
    # POs driven by a PI, by both constants and by a complemented gate;
    # a chain of gates no PO reaches
    xag = Xag()
    a, b, c = xag.create_pis(3)
    g = xag.create_and(a, b)
    orphan = xag.create_xor(g, c)
    xag.create_and(orphan, a ^ 1)
    for lit in (a, FALSE, TRUE, g ^ 1):
        xag.create_po(lit)
    networks.append(xag)
    # no PO reaches a gate at all
    xag = Xag()
    p, q = xag.create_pis(2)
    xag.create_xor(p, q)
    for lit in (q ^ 1, p, TRUE):
        xag.create_po(lit)
    networks.append(xag)
    # in-place rounds leave orphan chains for the flow-end sweep
    for seed in range(8):
        xag = random_xag(random.Random(seed), num_pis=8, num_gates=80)
        CutRewriter().rewrite_in_place(xag)
        networks.append(xag)
    for xag in networks:
        assert _live_counts(xag) == method_call_live_counts(xag)
    assert _live_counts(networks[0]) == (1, 0)
    assert _live_counts(networks[1]) == (0, 0)
    assert any(_live_counts(xag) != (xag.num_ands, xag.num_xors)
               for xag in networks[2:])

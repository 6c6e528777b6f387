"""Tests for plan insertion, cut rewriting and the optimisation pipelines."""

import random

import pytest

from repro.testing import full_adder_naive, random_xag
from repro.circuits.arithmetic import adder, comparator, full_adder
from repro.mc import McDatabase
from repro.rewriting import (
    CutRewriter,
    RewriteParams,
    SizeBaselinePass,
    insert_plan,
    optimize,
    run_pipeline,
    standard_flow,
)
from repro.tt import random_table
from repro.xag import Xag, equivalent, output_truth_tables
from repro.xag.graph import lit_node


# ----------------------------------------------------------------------
# plan insertion
# ----------------------------------------------------------------------
def test_insert_plan_reproduces_arbitrary_functions():
    database = McDatabase()
    rng = random.Random(1)
    for _ in range(15):
        num_vars = rng.randint(2, 6)
        table = random_table(num_vars, rng)
        plan = database.plan_for(table, num_vars)

        xag = Xag()
        leaves = xag.create_pis(num_vars)
        before_ands = xag.num_ands
        output = insert_plan(xag, plan, leaves)
        xag.create_po(output, "f")
        assert output_truth_tables(xag)[0] == table
        # the affine correction never adds AND gates
        assert xag.num_ands - before_ands <= plan.num_ands


def test_insert_plan_checks_leaf_count():
    database = McDatabase()
    plan = database.plan_for(0xE8, 3)
    xag = Xag()
    leaves = xag.create_pis(2)
    with pytest.raises(ValueError):
        insert_plan(xag, plan, leaves)


# ----------------------------------------------------------------------
# single-round rewriting
# ----------------------------------------------------------------------
def test_full_adder_reaches_multiplicative_complexity_one():
    """The paper's running example (Fig. 1 → Fig. 2): 3 AND gates become 1."""
    fa = full_adder_naive()
    result = optimize(fa, params=RewriteParams(cut_size=3))
    assert equivalent(fa, result.final)
    assert result.final.num_ands == 1


def test_rewrite_round_statistics():
    fa = full_adder_naive()
    rewriter = CutRewriter(params=RewriteParams(cut_size=3))
    improved, stats = rewriter.rewrite(fa)
    assert stats.ands_before == 3
    assert stats.ands_after == improved.num_ands
    assert stats.verified is True
    assert stats.nodes_considered > 0
    assert stats.candidates_evaluated > 0
    assert stats.rewrites_applied >= 1
    assert 0.0 < stats.and_improvement <= 1.0


def test_rewriting_preserves_function_on_random_networks(rng):
    for seed in range(4):
        xag = random_xag(random.Random(seed), num_pis=6, num_gates=40)
        result = optimize(xag, params=RewriteParams(cut_size=4, cut_limit=8), max_rounds=2)
        assert equivalent(xag, result.final)
        assert result.final.num_ands <= xag.num_ands


def test_rewriting_never_increases_and_count(rng):
    for seed in range(10, 14):
        xag = random_xag(random.Random(seed), num_pis=5, num_gates=30, and_bias=0.7)
        rewriter = CutRewriter(params=RewriteParams(cut_size=4))
        improved, stats = rewriter.rewrite(xag)
        assert improved.num_ands <= xag.num_ands
        assert stats.verified


def test_invalid_objective_rejected():
    rewriter = CutRewriter(params=RewriteParams(objective="area"))
    with pytest.raises(ValueError):
        rewriter.rewrite(full_adder_naive())


def test_size_objective_reduces_total_gates():
    rng = random.Random(77)
    xag = random_xag(rng, num_pis=5, num_gates=45, and_bias=0.6)
    result = run_pipeline(xag, [SizeBaselinePass(max_rounds=2)])
    assert equivalent(xag, result.final)
    assert result.final.num_gates <= xag.num_gates


# ----------------------------------------------------------------------
# flows
# ----------------------------------------------------------------------
def test_optimize_max_rounds_caps_at_a_single_round():
    fa = full_adder_naive()
    result = optimize(fa, params=RewriteParams(cut_size=3), max_rounds=1)
    assert len(result.rounds) == 1


def test_optimize_converges():
    add = adder(8)
    result = optimize(add, params=RewriteParams(cut_size=4, cut_limit=8))
    assert result.converged or result.final.num_ands == 8
    assert equivalent(add, result.final)
    # per-bit carry majority should be reduced to a single AND
    assert result.final.num_ands == 8


def test_adder_reaches_known_optimum_32():
    """Paper §5.2: the 32-bit adder is optimised down to 32 AND gates (optimal)."""
    add = adder(32)
    result = optimize(add, params=RewriteParams(cut_size=6, cut_limit=12))
    assert result.final.num_ands == 32
    assert equivalent(add, result.final)


def test_comparator_improves():
    cmp_ = comparator(8, signed=False, strict=True)
    result = optimize(cmp_, params=RewriteParams(cut_size=4, cut_limit=8))
    assert equivalent(cmp_, result.final)
    assert result.final.num_ands < cmp_.num_ands


def test_paper_flow_structure():
    fa = full_adder(style="naive")
    flow = run_pipeline(fa, standard_flow("mc"),
                        params=RewriteParams(cut_size=3))
    one, convergence = flow.passes
    assert (one.name, convergence.name) == ("one-round", "convergence")
    assert flow.final.num_pis == 3 and flow.final.num_pos == 2
    assert flow.initial.num_ands == 3
    assert one.ands_after <= flow.initial.num_ands
    assert flow.final.num_ands == 1
    assert flow.final.num_ands <= one.ands_after
    assert len(flow.rounds) >= 1
    assert flow.runtime_seconds >= one.runtime_seconds


def test_paper_flow_with_size_baseline():
    fa = full_adder(style="naive")
    flow = run_pipeline(fa, standard_flow("mc", size_baseline=True),
                        params=RewriteParams(cut_size=3))
    assert flow.passes[0].kind == "baseline"
    assert equivalent(fa, flow.final)


def test_flow_respects_max_rounds():
    add = adder(8)
    flow = run_pipeline(add, standard_flow("mc", max_rounds=1),
                        params=RewriteParams(cut_size=4, cut_limit=6))
    assert len(flow.rounds) == 1


def test_shared_database_accumulates_recipes():
    database = McDatabase()
    optimize(full_adder_naive(), database=database, params=RewriteParams(cut_size=3))
    first = database.stats()["stored_recipes"]
    optimize(adder(4), database=database, params=RewriteParams(cut_size=4))
    assert database.stats()["stored_recipes"] >= first

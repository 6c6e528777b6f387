"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.engine.core import EngineConfig, run_batch  # noqa: E402
from repro.testing.oracle import assert_equivalent  # noqa: E402
from repro.xag import serialize  # noqa: E402
from repro.xag.graph import Xag, lit_node  # noqa: E402


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4];  root > c [7, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 7.0]
    ends = [10.0, 6.0, 4.0, 9.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 3.0, 2.0, 2.0]


def test_layer_totals_count_nested_same_layer_wall_once():
    names = ["bench.root", "x", "y"]
    # root > x [1, 9] > x [2, 5] > y [3, 4];  root > y [9.5, 10]
    name_ids = [0, 1, 1, 2, 2]
    parents = [-1, 0, 1, 2, 0]
    starts = [0.0, 1.0, 2.0, 3.0, 9.5]
    ends = [10.0, 9.0, 5.0, 4.0, 10.0]
    totals = spans.layer_totals(names, name_ids, parents, starts, ends)
    assert totals["x"]["calls"] == 2
    assert totals["x"]["self_s"] == pytest.approx(5.0 + 2.0)
    assert totals["x"]["wall_s"] == pytest.approx(8.0)
    assert totals["y"]["self_s"] == pytest.approx(1.5)
    assert totals["bench.root"]["self_s"] == pytest.approx(1.5)
    # named layers claim everything but the root's own 1.5 s of 10 s
    assert spans.coverage(totals) == pytest.approx(8.5 / 10.0)


def test_coverage_excludes_waits_and_the_container():
    names = [spans.ROOT, spans.WAIT, spans.CONTAINER, "cuts.mffc"]
    # root [0, 10] > wait [0, 4];  root > run_circuit [4, 10] > mffc [5, 9]
    totals = spans.layer_totals(names, [0, 1, 2, 3], [-1, 0, 0, 2],
                                [0.0, 0.0, 4.0, 5.0], [10.0, 4.0, 10.0, 9.0])
    assert spans.coverage(totals) == pytest.approx(4.0 / 6.0)


def test_span_file_round_trip(tmp_path):
    tracer = spans.Tracer("run", tmp_path)
    outer = tracer.open(tracer.name_id("a"))
    inner = tracer.open(tracer.name_id("b"))
    tracer.close(inner)
    tracer.close(outer)
    tracer.count("bytes", 7)
    header, names, name_ids, parents, starts, ends = spans.read_spans(
        tracer.write("batch"))
    assert header["run_id"] == "run" and header["counters"] == {"bytes": 7}
    assert names == ["a", "b"]
    assert list(name_ids) == [0, 1] and list(parents) == [-1, 0]
    assert isinstance(starts, array) and starts[0] <= starts[1] <= ends[1] <= ends[0]


# ----------------------------------------------------------------------
# wrappers come off again
# ----------------------------------------------------------------------
def _attribute_snapshot():
    """Every module/class attribute the tracer may patch, by identity."""
    snapshot = {}
    for targets in spans.LAYERS.values():
        for target in targets:
            owner, attribute, original = spans._resolve(target)
            snapshot[(id(owner), attribute)] = original
            if not isinstance(owner, type):
                for name, module in list(sys.modules.items()):
                    if module is None or not name.startswith("repro"):
                        continue
                    for key, value in vars(module).items():
                        if value is original:
                            snapshot[(id(module), key)] = value
    return snapshot


def test_untraced_run_after_traced_run_sees_original_functions(tmp_path):
    from repro.cuts.cache import CutFunctionCache
    from repro.rewriting import rewrite

    before = _attribute_snapshot()
    original_mffc = rewrite.mffc
    original_insert = rewrite.insert_plan
    original_plan_for = CutFunctionCache.plan_for
    config = EngineConfig(suites=("epfl",), circuits=["alu_ctrl"],
                          max_rounds=1)

    tracer = spans.Tracer("run", tmp_path)
    tracer.install()
    assert rewrite.mffc is not original_mffc
    assert rewrite.insert_plan is not original_insert
    assert CutFunctionCache.plan_for is not original_plan_for
    traced = run_batch(config)
    tracer.remove()
    recorded = len(tracer.span_start)
    assert recorded > 0

    assert rewrite.mffc is original_mffc
    assert rewrite.insert_plan is original_insert
    assert CutFunctionCache.plan_for is original_plan_for
    assert _attribute_snapshot() == before
    untraced = run_batch(config)
    assert len(tracer.span_start) == recorded  # nothing recorded any more
    assert [(r.ands_after, r.depth_after) for r in untraced.reports] == \
        [(r.ands_after, r.depth_after) for r in traced.reports]


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
SMALL_CASES = ("alu_ctrl", "int2float")


def test_seed0_inputs_reproduce_registry_results(tmp_path):
    workload = workloads.WORKLOADS["epfl-cold"]
    workloads.generate_inputs(workload, 0, tmp_path, only=SMALL_CASES)
    batch = run_batch(EngineConfig(
        suites=(), corpus_dirs=(str(tmp_path),), objective=workload.objective,
        max_rounds=None, jobs=1))
    generated = {workloads.case_of(r.name): [r.ands_after, r.depth_after]
                 for r in batch.reports}
    registry = {name: triple[:2] for name, triple in
                golden.registry_triples(workload, SMALL_CASES).items()}
    assert generated == registry
    pinned = json.loads(golden.EXPECTED.read_text())["epfl-cold"]["0"]
    assert registry == {name: pinned[name][:2] for name in SMALL_CASES}


def unpermuted(xag, reference):
    """``xag`` with its primary inputs put back into ``reference``'s order.

    Inputs are matched by name, so a :func:`permuted` copy maps back onto
    the registry circuit and the two can be compared pattern for pattern.
    """
    by_name = {name: index for index, name in enumerate(xag.pi_names())}
    if sorted(by_name) != sorted(reference.pi_names()):
        raise ValueError("networks do not share primary input names")
    copy = Xag()
    copy.name = xag.name
    lit_of = {0: 0}
    pis = xag.pis()
    for name in reference.pi_names():
        lit_of[pis[by_name[name]]] = copy.create_pi(name)
    for gate in xag.topological_order():
        if not xag.is_gate(gate):
            continue
        f0, f1 = xag.fanins(gate)
        a = lit_of[lit_node(f0)] ^ (f0 & 1)
        b = lit_of[lit_node(f1)] ^ (f1 & 1)
        lit_of[gate] = (copy.create_and(a, b) if xag.is_and(gate)
                        else copy.create_xor(a, b))
    for index, po in enumerate(xag.po_literals()):
        copy.create_po(lit_of[lit_node(po)] ^ (po & 1), xag.po_name(index))
    return copy


def test_seeded_permutation_preserves_function_and_is_deterministic():
    cases = {case.name: case for case in
             workloads.registry_cases(workloads.WORKLOADS["crypto-warm"])}
    original = cases["des"].build()
    first = workloads.permuted(original, 7, "des")
    second = workloads.permuted(original, 7, "des")
    assert serialize.to_dict(first) == serialize.to_dict(second)
    assert first.pi_names() != original.pi_names()
    assert sorted(first.pi_names()) == sorted(original.pi_names())
    assert first.num_ands == original.num_ands
    assert workloads.permuted(original, 0, "des") is original
    assert_equivalent(original, unpermuted(first, original),
                      context="des seed 7")


def test_generated_names_never_collide_with_the_registry(tmp_path):
    from repro.engine.core import available_cases

    registry = {case.name for case in available_cases(("all",))}
    for workload in workloads.WORKLOADS.values():
        for position, case in enumerate(workload.cases):
            stem = workloads.file_stem(position, case)
            assert stem not in registry
            assert workloads.case_of(stem) == case

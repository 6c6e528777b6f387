"""Tests for metrics, table rendering and the benchmark registries."""

import pytest

from repro.analysis import (
    TableRow,
    geometric_mean,
    improvement,
    measure,
    normalized_geometric_mean,
    render_paper_comparison,
    render_results_table,
    rows_to_markdown,
)
from repro.circuits import epfl_benchmark_map, epfl_benchmarks
from repro.circuits.arithmetic import full_adder
from repro.circuits.crypto import mpc_benchmark_map, mpc_benchmarks
from repro.rewriting import RewriteParams, run_pipeline, standard_flow


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_measure_full_adder():
    metrics = measure(full_adder(style="naive"))
    assert metrics.num_pis == 3
    assert metrics.num_pos == 2
    assert metrics.num_ands == 3
    assert metrics.num_gates == metrics.num_ands + metrics.num_xors
    assert metrics.multiplicative_depth <= metrics.depth


def test_improvement():
    assert improvement(100, 66) == pytest.approx(0.34)
    assert improvement(0, 0) == 0.0


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) is None
    assert geometric_mean([0.0, 0.0]) is None


def test_normalized_geometric_mean_matches_paper_style():
    befores = [100, 200]
    afters = [50, 100]
    assert normalized_geometric_mean(befores, afters) == pytest.approx(0.5)


def test_normalized_geometric_mean_counts_fully_optimised_circuits():
    """Regression: a circuit optimised to 0 ANDs must *improve* the mean.

    The old implementation skipped the zero ratio (``geometric_mean`` drops
    non-positive entries), reporting the same mean as if the best row did
    not exist — i.e. full optimisation inflated the paper's "Normalized
    geometric mean" row instead of lowering it.
    """
    with_zero = normalized_geometric_mean([10, 10], [5, 0])
    without_entry = normalized_geometric_mean([10], [5])
    almost_zero = normalized_geometric_mean([10, 10], [5, 1])
    assert with_zero is not None
    assert with_zero < without_entry          # the old bug made these equal
    assert with_zero < almost_zero            # 0 ANDs beats 1 AND
    # documented epsilon: the zero row contributes 0.5 / before
    assert with_zero == pytest.approx((0.5 * 0.05) ** 0.5)
    # epsilon is tunable
    assert normalized_geometric_mean([10], [0], zero_epsilon=0.1) == \
        pytest.approx(0.01)


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
def test_epfl_registry_covers_table1():
    names = {case.name for case in epfl_benchmarks()}
    expected = {"adder", "barrel_shifter", "divisor", "log2", "max", "multiplier", "sine",
                "square_root", "square", "arbiter", "alu_ctrl", "cavlc", "decoder", "i2c",
                "int2float", "mem_ctrl", "priority", "router", "voter"}
    assert names == expected
    groups = {case.group for case in epfl_benchmarks()}
    assert groups == {"arithmetic", "control"}


def test_mpc_registry_covers_table2():
    cases = mpc_benchmarks()
    assert len(cases) == 14
    assert all(case.group == "mpc" for case in cases)
    names = {case.name for case in cases}
    assert {"aes_128", "des", "md5", "sha1", "sha256", "adder_32", "adder_64"} <= names


def test_registry_paper_numbers_are_consistent():
    for case in epfl_benchmarks() + mpc_benchmarks():
        paper = case.paper
        assert paper.initial_and >= 0
        assert 0.0 <= paper.one_round_improvement <= 1.0
        assert 0.0 <= paper.convergence_improvement <= 1.0
        if paper.convergence_and is not None:
            assert paper.convergence_and <= paper.initial_and
        assert paper.convergence_improvement >= paper.one_round_improvement


def test_registry_maps():
    assert epfl_benchmark_map()["adder"].group == "arithmetic"
    assert mpc_benchmark_map()["sha256"].group == "mpc"


def test_small_benchmarks_build_at_default_scale():
    quick = {"adder", "decoder", "int2float", "alu_ctrl", "router", "priority"}
    for case in epfl_benchmarks():
        if case.name in quick:
            xag = case.build(full_scale=False)
            assert xag.num_pis > 0 and xag.num_pos > 0


def test_mpc_comparators_build_paper_sized():
    for name in ("comparator_slt_32", "comparator_ult_32"):
        case = mpc_benchmark_map()[name]
        xag = case.build()
        assert xag.num_pis == case.paper.inputs
        assert xag.num_pos == case.paper.outputs


# ----------------------------------------------------------------------
# table rendering
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def example_rows():
    case = epfl_benchmark_map()["adder"]
    xag = case.build_default()
    result = run_pipeline(xag, standard_flow("mc", max_rounds=2),
                          params=RewriteParams(cut_size=4, cut_limit=6))
    return [TableRow(case=case, result=result)]


def test_render_results_table(example_rows):
    text = render_results_table(example_rows, "Table 1 (excerpt)")
    assert "Table 1 (excerpt)" in text
    assert "adder" in text
    assert "Normalized geometric mean" in text


def test_render_paper_comparison(example_rows):
    text = render_paper_comparison(example_rows, "comparison")
    assert "paper impr" in text
    assert "adder" in text


def test_rows_to_markdown(example_rows):
    text = rows_to_markdown(example_rows, "Table 1")
    assert text.startswith("### Table 1")
    assert "| adder |" in text

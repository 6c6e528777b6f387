"""Renderers for the paper's experiment tables.

The harness in ``benchmarks/`` produces one :class:`TableRow` per benchmark by
running the paper pipeline (``run_pipeline`` over ``standard_flow("mc")``);
the functions here format the rows in the same layout as the paper's
Table 1 / Table 2 (initial, one round, repeat-until-convergence) and add a
paper-vs-measured comparison so the EXPERIMENTS.md log can be regenerated
mechanically.  The "One round" columns read the pipeline's ``one-round``
pass (:attr:`~repro.rewriting.pipeline.PipelineResult.one_round_pass`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.metrics import normalized_geometric_mean
from repro.circuits.benchmark_case import BenchmarkCase
from repro.rewriting.pipeline import PipelineResult


@dataclass
class TableRow:
    """Measured numbers for one benchmark row."""

    case: BenchmarkCase
    result: PipelineResult

    @property
    def name(self) -> str:
        return self.case.name

    @property
    def one_round_improvement(self) -> float:
        """Fractional AND reduction after a single rewriting round."""
        before = self.result.ands_before
        after = self.result.one_round_pass.ands_after
        return 1.0 - after / before if before else 0.0

    @property
    def convergence_seconds(self) -> float:
        """Wall clock of the rewriting passes (the size baseline excluded)."""
        return (self.result.runtime_seconds
                - self.result.stage_seconds("baseline"))


def _format_percent(value: float) -> str:
    return f"{round(100 * value):d} %"


def render_results_table(rows: Sequence[TableRow], title: str) -> str:
    """Render rows in the layout of the paper's tables."""
    header = (
        f"{'Name':<22} {'In':>5} {'Out':>5} | {'AND':>7} {'XOR':>7} | "
        f"{'AND':>7} {'XOR':>7} {'time[s]':>8} {'impr':>6} | "
        f"{'AND':>7} {'XOR':>7} {'time[s]':>8} {'impr':>6}"
    )
    subheader = (
        f"{'':<22} {'':>5} {'':>5} | {'Initial':>15} | "
        f"{'One round':>30} | {'Repeat until convergence':>30}"
    )
    lines = [title, subheader, header, "-" * len(header)]
    for row in rows:
        result, one = row.result, row.result.one_round_pass
        lines.append(
            f"{row.name:<22} {result.final.num_pis:>5} {result.final.num_pos:>5} | "
            f"{result.initial.num_ands:>7} {result.initial.num_xors:>7} | "
            f"{one.ands_after:>7} {one.xors_after:>7} "
            f"{one.runtime_seconds:>8.2f} {_format_percent(row.one_round_improvement):>6} | "
            f"{result.final.num_ands:>7} {result.final.num_xors:>7} "
            f"{row.convergence_seconds:>8.2f} {_format_percent(result.and_improvement):>6}"
        )
    geomean_one = normalized_geometric_mean(
        [row.result.initial.num_ands for row in rows],
        [row.result.one_round_pass.ands_after for row in rows])
    geomean_conv = normalized_geometric_mean(
        [row.result.initial.num_ands for row in rows],
        [row.result.final.num_ands for row in rows])
    lines.append("-" * len(header))
    if geomean_one is not None and geomean_conv is not None:
        lines.append(
            f"{'Normalized geometric mean':<36} | {'1.00':>15} | "
            f"{geomean_one:>30.2f} | {geomean_conv:>30.2f}"
        )
    return "\n".join(lines)


def render_paper_comparison(rows: Sequence[TableRow], title: str) -> str:
    """Paper-vs-measured comparison of the convergence improvement per row."""
    header = (
        f"{'Name':<22} {'paper init AND':>15} {'ours init AND':>14} "
        f"{'paper impr':>11} {'ours impr':>10} {'shape':>7}"
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        paper = row.case.paper
        ours = row.result
        paper_impr = paper.convergence_improvement or paper.one_round_improvement
        ours_impr = ours.and_improvement
        shape_ok = _same_shape(paper_impr, ours_impr)
        lines.append(
            f"{row.name:<22} {paper.initial_and:>15} {ours.initial.num_ands:>14} "
            f"{_format_percent(paper_impr):>11} {_format_percent(ours_impr):>10} "
            f"{'ok' if shape_ok else 'DIFF':>7}"
        )
    return "\n".join(lines)


def _same_shape(paper_improvement: float, measured_improvement: float) -> bool:
    """Loose agreement check: both negligible, or both substantial and within 30 points."""
    if paper_improvement < 0.05:
        return measured_improvement < 0.20
    return measured_improvement > 0.05 and abs(paper_improvement - measured_improvement) < 0.35


def rows_to_markdown(rows: Sequence[TableRow], title: str) -> str:
    """Markdown rendering used to regenerate EXPERIMENTS.md sections."""
    lines = [f"### {title}", "",
             "| Benchmark | In | Out | Initial AND/XOR | One round AND (impr) | "
             "Convergence AND (impr) | Paper initial AND | Paper conv. impr |",
             "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        paper = row.case.paper
        result = row.result
        lines.append(
            f"| {row.name} | {result.final.num_pis} | {result.final.num_pos} "
            f"| {result.initial.num_ands}/{result.initial.num_xors} "
            f"| {row.result.one_round_pass.ands_after} ({_format_percent(row.one_round_improvement)}) "
            f"| {result.final.num_ands} ({_format_percent(result.and_improvement)}) "
            f"| {paper.initial_and} | {_format_percent(paper.convergence_improvement)} |"
        )
    return "\n".join(lines)

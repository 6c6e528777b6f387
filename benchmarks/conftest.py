"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md's
experiment index).  Two environment variables control the scale:

* ``REPRO_FULL_SCALE=1`` — build the paper-sized netlists (hours in pure
  Python) instead of the reduced-scale defaults;
* ``REPRO_BENCH_ROUNDS=N`` — cap the number of rewriting rounds used for the
  "repeat until convergence" columns (default: 3 for small circuits, 1 for
  large ones).

Measured rows are accumulated and printed at the end of each module so the
paper-layout tables appear in the pytest output (run with ``-s`` to see them
immediately), and they are also appended to ``benchmarks/results/*.md``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional

import pytest

from repro.analysis import TableRow, render_paper_comparison, render_results_table, \
    rows_to_markdown
from repro.circuits.benchmark_case import BenchmarkCase
from repro.mc import McDatabase
from repro.rewriting import RewriteParams, run_pipeline, standard_flow

RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    """True when the paper-scale netlists were requested."""
    return os.environ.get("REPRO_FULL_SCALE", "0") == "1"


def maybe_skip_slow_case(case: BenchmarkCase) -> None:
    """Skip cases whose *default* build is already full-scale crypto.

    Such cases (``BenchmarkCase.slow``) take minutes to optimise in pure
    Python; they only run when the paper-scale environment is requested via
    ``REPRO_FULL_SCALE=1``.
    """
    if case.slow and not full_scale():
        pytest.skip(f"{case.name} is a full-scale case "
                    f"(set REPRO_FULL_SCALE=1 to run it)")


def rounds_cap(initial_ands: int) -> Optional[int]:
    """Convergence-round cap used to keep the pure-Python harness tractable."""
    override = os.environ.get("REPRO_BENCH_ROUNDS")
    if override:
        return int(override)
    return 3 if initial_ands < 400 else 1


@pytest.fixture(scope="session")
def shared_database() -> McDatabase:
    """One representative database shared by the whole benchmark session.

    Sharing mirrors the paper's setup (the XAG_DB is computed once and reused)
    and lets the classification cache warm up across benchmarks.
    """
    return McDatabase()


def run_case(case: BenchmarkCase, database: McDatabase,
             cut_size: int = 6, cut_limit: int = 12,
             verify_limit: int = 20000) -> TableRow:
    """Run the paper's experimental pipeline on one benchmark case."""
    maybe_skip_slow_case(case)
    xag = case.build(full_scale=full_scale())
    verify = (xag.num_ands + xag.num_xors) <= verify_limit
    params = RewriteParams(cut_size=cut_size, cut_limit=cut_limit, verify=verify)
    result = run_pipeline(xag, standard_flow("mc",
                                             max_rounds=rounds_cap(xag.num_ands)),
                          database=database, params=params)
    return TableRow(case=case, result=result)


def report(rows: List[TableRow], title: str, filename: str) -> None:
    """Print the paper-layout table and persist a markdown copy."""
    if not rows:
        return
    text = render_results_table(rows, title)
    comparison = render_paper_comparison(rows, f"{title} — paper vs measured")
    print()
    print(text)
    print()
    print(comparison)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(
        rows_to_markdown(rows, title) + "\n\n```\n" + text + "\n\n" + comparison + "\n```\n")

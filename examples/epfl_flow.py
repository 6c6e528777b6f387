#!/usr/bin/env python3
"""Re-run the paper's Table 1 experiment on a subset of the EPFL-style suite.

For each selected benchmark the script prints the paper-layout row (initial /
one round / repeat-until-convergence) next to the numbers reported in the
paper, using the same machinery as ``benchmarks/bench_table1_*.py``.

Usage::

    python examples/epfl_flow.py                       # a quick 4-benchmark subset
    python examples/epfl_flow.py adder max voter       # pick specific benchmarks
    REPRO_FULL_SCALE=1 python examples/epfl_flow.py    # paper-scale netlists (slow)
"""

import os
import sys

from repro import McDatabase, RewriteParams, run_pipeline, standard_flow
from repro.analysis import TableRow, render_paper_comparison, render_results_table
from repro.circuits import epfl_benchmark_map

DEFAULT_SUBSET = ["adder", "barrel_shifter", "max", "int2float"]


def main() -> None:
    names = sys.argv[1:] or DEFAULT_SUBSET
    full_scale = os.environ.get("REPRO_FULL_SCALE", "0") == "1"
    registry = epfl_benchmark_map()
    database = McDatabase()
    rows = []
    for name in names:
        case = registry[name]
        xag = case.build(full_scale=full_scale)
        print(f"running {name} ({xag.num_ands} AND / {xag.num_xors} XOR) ...")
        result = run_pipeline(xag, standard_flow("mc", max_rounds=4),
                              database=database,
                              params=RewriteParams(cut_size=6, cut_limit=12))
        rows.append(TableRow(case=case, result=result))

    print()
    print(render_results_table(rows, "Table 1 (reproduced subset)"))
    print()
    print(render_paper_comparison(rows, "Paper vs measured"))


if __name__ == "__main__":
    main()

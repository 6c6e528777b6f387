"""Table 1 (random/control half): EPFL control-dominated benchmarks.

The paper's point here is the *contrast* with the arithmetic half: control
logic has little XOR structure, so the MC-aware rewriting finds much smaller
reductions (0.87 normalised geometric mean vs 0.49, with several 0 % rows).
"""

import pytest

from conftest import report, run_case
from repro.analysis import TableRow, normalized_geometric_mean
from repro.circuits import epfl_benchmarks

CONTROL_CASES = [case for case in epfl_benchmarks() if case.group == "control"]
_ROWS = []


@pytest.mark.parametrize("case", CONTROL_CASES, ids=lambda case: case.name)
def test_table1_control_row(case, benchmark, shared_database):
    row = benchmark.pedantic(run_case, args=(case, shared_database), rounds=1, iterations=1)
    _ROWS.append(row)
    result = row.result
    assert result.final.num_ands <= result.initial.num_ands


def test_table1_control_report():
    report(_ROWS, "Table 1 — EPFL random/control benchmarks", "table1_control.md")
    if len(_ROWS) >= 5:
        geomean = normalized_geometric_mean(
            [row.result.initial.num_ands for row in _ROWS],
            [row.result.final.num_ands for row in _ROWS])
        arithmetic_like_geomean = 0.6
        # control benchmarks improve less than arithmetic ones (paper: 0.87 vs 0.49)
        assert geomean is None or geomean > arithmetic_like_geomean - 0.2

"""Table 1 (arithmetic half): EPFL arithmetic benchmarks.

The paper reports a 0.49 normalised geometric mean of the AND count after
repeating the rewriting until convergence (i.e. roughly half of the AND gates
disappear); the reduced-scale generators used here reproduce that shape.
"""

import pytest

from conftest import report, run_case
from repro.analysis import TableRow
from repro.circuits import epfl_benchmarks

ARITHMETIC_CASES = [case for case in epfl_benchmarks() if case.group == "arithmetic"]
_ROWS = []


@pytest.mark.parametrize("case", ARITHMETIC_CASES, ids=lambda case: case.name)
def test_table1_arithmetic_row(case, benchmark, shared_database):
    row = benchmark.pedantic(run_case, args=(case, shared_database), rounds=1, iterations=1)
    _ROWS.append(row)
    result = row.result
    assert result.final.num_ands <= result.initial.num_ands
    # arithmetic benchmarks are where the paper's big wins are; at reduced
    # scale we still expect a clear AND reduction on every row — except the
    # barrel shifter, whose MUX-based generator is already MC-optimal (one
    # AND per mux; the paper's 67 % win comes from the unoptimised EPFL
    # netlist, which the reduced-scale generator does not reproduce).
    if case.name != "barrel_shifter":
        assert result.and_improvement > 0.05, case.name


def test_table1_arithmetic_report():
    report(_ROWS, "Table 1 — EPFL arithmetic benchmarks", "table1_arithmetic.md")
    if _ROWS:
        improvements = [row.result.and_improvement for row in _ROWS]
        assert sum(improvements) / len(improvements) > 0.2

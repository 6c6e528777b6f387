"""Table 2: MPC and FHE benchmarks (block ciphers, hash functions, arithmetic).

The qualitative shape the paper reports — AES essentially unimprovable, the
Feistel cipher improving modestly, the hash functions and adders improving
dramatically, the 32/64-bit adders reaching the known optimum of one AND per
bit — is asserted per row.
"""

import pytest

from conftest import full_scale, report, run_case
from repro.analysis import TableRow
from repro.circuits.crypto import mpc_benchmarks

CASES = {case.name: case for case in mpc_benchmarks()}
_ROWS = []

#: rows small enough to run with the default cut parameters in pure Python.
FAST_ROWS = ["adder_32", "adder_64", "comparator_sleq_32", "comparator_slt_32",
             "comparator_uleq_32", "comparator_ult_32", "multiplier_32", "md5", "sha1"]
#: heavier rows: larger circuits, still reduced-scale by default.
HEAVY_ROWS = ["aes_128_expanded", "aes_128", "des", "des_expanded", "sha256"]


def _run(case_name, benchmark, shared_database, cut_size=6, cut_limit=12):
    case = CASES[case_name]
    row = benchmark.pedantic(run_case, args=(case, shared_database),
                             kwargs={"cut_size": cut_size, "cut_limit": cut_limit},
                             rounds=1, iterations=1)
    _ROWS.append(row)
    return row


@pytest.mark.parametrize("case_name", FAST_ROWS)
def test_table2_row(case_name, benchmark, shared_database):
    row = _run(case_name, benchmark, shared_database)
    result = row.result
    assert result.final.num_ands <= result.initial.num_ands


@pytest.mark.parametrize("case_name", HEAVY_ROWS)
def test_table2_heavy_row(case_name, benchmark, shared_database):
    row = _run(case_name, benchmark, shared_database, cut_size=5, cut_limit=8)
    result = row.result
    assert result.final.num_ands <= result.initial.num_ands


def test_table2_report():
    report(_ROWS, "Table 2 — MPC and FHE benchmarks", "table2_mpc_fhe.md")
    rows = {row.name: row for row in _ROWS}

    # adders reach the known optimum of one AND per bit (paper §5.2)
    if "adder_32" in rows:
        assert rows["adder_32"].result.final.num_ands == 32
    if "adder_64" in rows:
        assert rows["adder_64"].result.final.num_ands == 64

    # AES is already essentially at its multiplicative complexity (paper: 0 %)
    if "aes_128_expanded" in rows:
        assert rows["aes_128_expanded"].result.and_improvement < 0.10

    # hash functions lose a large share of their AND gates (paper: 58-68 %)
    for name in ("md5", "sha1"):
        if name in rows:
            assert rows[name].result.and_improvement > 0.35, name

    # comparators improve noticeably (paper: 14-28 %)
    for name in ("comparator_ult_32", "comparator_slt_32"):
        if name in rows:
            assert rows[name].result.and_improvement > 0.10, name

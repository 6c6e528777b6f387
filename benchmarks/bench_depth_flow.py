"""Depth-aware flow vs the pure-MC flow on the EPFL control set + crypto.

MPC/FHE cost models (the paper's Table 2 domain) price a circuit by both its
AND count and its multiplicative depth — homomorphic noise growth is
exponential in the number of AND levels.  This benchmark races the plain
``"mc"`` convergence flow against the depth-aware flow
(``standard_flow("mc-depth")``: balance → depth-guarded mc rounds →
``"mc-depth"`` rewriting, iterated to a fixpoint; the guarded stage drains
one persistent dirty-node worklist over a shared optimisation context) and
pins its contract:

* the multiplicative depth never exceeds the initial network's;
* the AND count stays within 1 % of the pure-MC flow per circuit;
* on at least half of the EPFL control set the depth is *strictly lower*
  than what the MC flow produces.

The measured table is persisted to ``benchmarks/results/depth_flow.md``.
``--smoke`` checks the depth and equivalence contract on two control
circuits for CI.
"""

import math
import os
import platform
import time
from pathlib import Path

import pytest

from conftest import rounds_cap
from repro import kernels
from repro.cuts.cache import CutFunctionCache
from repro.engine import EngineConfig
from repro.engine.core import select_cases
from repro.mc import McDatabase
from repro.rewriting import RewriteParams, optimize, run_pipeline, standard_flow
from repro.xag import equivalent, multiplicative_depth

RESULTS_DIR = Path(__file__).parent / "results"

CONTROL = ["arbiter", "alu_ctrl", "cavlc", "decoder", "i2c", "int2float",
           "mem_ctrl", "priority", "router", "voter"]
#: crypto registry rows small enough for the pure-Python flow.
CRYPTO = ["adder_32", "comparator_ult_32", "multiplier_32", "md5", "sha1"]

_DB = McDatabase()
_CUT_CACHE = CutFunctionCache(_DB)
_ROWS = []


def _case(name, suite):
    config = EngineConfig(suites=(suite,), circuits=[name])
    return select_cases(config)[0]


def _depth_pipeline(xag, max_rounds=None, max_iterations=8, verify=True,
                    **caches):
    """The canonical mc-depth pipeline, as the engine runs it."""
    return run_pipeline(
        xag, standard_flow("mc-depth", max_rounds=max_rounds,
                           max_iterations=max_iterations),
        params=RewriteParams(objective="mc-depth", verify=verify), **caches)


def _run_row(name, suite):
    case = _case(name, suite)
    xag = case.build()
    cap = rounds_cap(xag.num_ands)
    verify = (xag.num_ands + xag.num_xors) <= 20000
    mc_params = RewriteParams(verify=verify)

    start = time.perf_counter()
    mc = optimize(xag, params=mc_params, max_rounds=cap,
                  cut_cache=_CUT_CACHE)
    mc_seconds = time.perf_counter() - start

    start = time.perf_counter()
    df = _depth_pipeline(xag, max_rounds=cap, max_iterations=4,
                         verify=verify, cut_cache=_CUT_CACHE)
    df_seconds = time.perf_counter() - start

    pair = (df.final.num_ands, df.depth_after)
    if verify:
        assert equivalent(xag, df.final)
    row = {
        "name": name,
        "group": case.group,
        "initial": (xag.num_ands, multiplicative_depth(xag)),
        "mc": (mc.final.num_ands, multiplicative_depth(mc.final)),
        "depth": pair,
        "mc_seconds": mc_seconds,
        "df_seconds": df_seconds,
        "backend": kernels.backend_name(),
    }
    _ROWS.append(row)
    return row


@pytest.mark.parametrize("name", CONTROL)
def test_depth_flow_control_row(name):
    row = _run_row(name, "epfl")
    ands_mc, _ = row["mc"]
    ands_df, depth_df = row["depth"]
    # the depth never exceeds the initial network's
    assert depth_df <= row["initial"][1], row
    # ≤ 1 % AND regression vs the pure-MC flow
    assert ands_df <= math.ceil(1.01 * ands_mc), row


@pytest.mark.parametrize("name", CRYPTO)
def test_depth_flow_crypto_row(name):
    row = _run_row(name, "crypto")
    assert row["depth"][1] <= row["initial"][1], row
    assert row["depth"][0] <= row["initial"][0], row


def test_depth_flow_report():
    control = [row for row in _ROWS if row["group"] != "mpc"]
    if control:
        wins = sum(1 for row in control if row["depth"][1] < row["mc"][1])
        assert wins * 2 >= len(control), \
            f"depth reduced on only {wins}/{len(control)} control circuits"
    lines = [
        "# Depth-aware flow vs pure-MC flow",
        "",
        "The mc-depth pipeline (balance → depth-guarded mc rounds →",
        "mc-depth rewriting, iterated to a fixpoint) against `optimize` with",
        "the paper's `mc` objective.  Both from the same initial network, shared",
        "database/caches; `(ANDs, depth)` pairs, depth = multiplicative",
        "depth, wall time in parentheses.  The backend column names the",
        "kernel backend that ran the row; both backends produce",
        "bit-identical pairs (pinned in `tests/test_kernels.py`), only the",
        "timings differ.",
        "",
        f"Measured on a {os.cpu_count() or 1}-CPU host, Python "
        f"{platform.python_version()}.",
        "",
        "| circuit | group | initial | mc flow | depth flow | Δdepth vs mc "
        "| AND regression | backend |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in _ROWS:
        ands_mc, depth_mc = row["mc"]
        ands_df, depth_df = row["depth"]
        regression = (ands_df / ands_mc - 1.0) if ands_mc else 0.0
        lines.append(
            f"| {row['name']} | {row['group']} "
            f"| {row['initial'][0]}/{row['initial'][1]} "
            f"| {ands_mc}/{depth_mc} ({row['mc_seconds']:.1f}s) "
            f"| {ands_df}/{depth_df} ({row['df_seconds']:.1f}s) "
            f"| {depth_df - depth_mc:+d} | {100 * regression:+.1f}% "
            f"| {row['backend']} |")
    if control:
        lines += ["",
                  f"Depth strictly reduced vs the mc flow on {wins} of "
                  f"{len(control)} control circuits; depth never exceeds the "
                  "initial network's, AND regression ≤ 1% per circuit."]
    body = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "depth_flow.md").write_text(body)
    print("\n" + body)


# ----------------------------------------------------------------------
# CI smoke entry point
# ----------------------------------------------------------------------
def smoke(circuits=("int2float", "router")) -> int:
    """Quick depth-flow contract check for CI.

    For each circuit the multiplicative depth must never increase and the
    result must stay equivalent to the input.
    """
    ok = True
    for name in circuits:
        case = _case(name, "epfl")
        xag = case.build()
        start = time.perf_counter()
        flow = _depth_pipeline(xag)
        seconds = time.perf_counter() - start
        good = (flow.depth_after <= flow.depth_before
                and equivalent(xag, flow.final))
        ok = ok and good
        print(f"smoke {name}: initial {xag.num_ands}/{flow.depth_before} "
              f"-> {flow.final.num_ands}/{flow.depth_after} in "
              f"{seconds:.1f}s -> {'OK' if good else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="Depth-flow benchmark (run under pytest for the full "
                    "table; --smoke runs the contract check)")
    parser.add_argument("--smoke", action="store_true",
                        help="check the depth never increases and the "
                             "result stays equivalent")
    parser.add_argument("--circuits", default="int2float,router",
                        help="comma-separated EPFL circuits for --smoke")
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run this module under pytest, or pass --smoke")
    sys.exit(smoke(tuple(args.circuits.split(","))))

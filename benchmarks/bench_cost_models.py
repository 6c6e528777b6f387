"""All registered cost models raced on the EPFL control set + crypto rows.

The rewriting engine prices candidates through a pluggable
:class:`repro.rewriting.cost.CostModel`; this benchmark runs every built-in
model — ``mc`` (the paper's AND count), ``size`` (total gates), ``mc-depth``
(ANDs, then multiplicative depth, never deepening) and ``fhe`` (noise-budget
levels: weighted depth + ANDs) — through the *engine* path
(:func:`repro.engine.core.run_circuit`, canonical flow per model, shared
database/caches) and pins each model's contract:

* every model: the result stays equivalent (engine-verified) and the AND
  count never increases;
* depth-aware models (``mc-depth``, ``fhe``): the multiplicative depth
  never exceeds the initial network's;
* every model: its own reported metric (``cost_after``) never exceeds
  ``cost_before`` — a model that worsens its own objective is broken.

The measured table is persisted to ``benchmarks/results/cost_models.md``.
``--smoke`` pins the ``mc`` parity goldens (the refactor from string-switched
objectives to cost-model objects must stay bit-exact) and the ``fhe``
contract on two control circuits for CI.
"""

import time
from pathlib import Path

import pytest

from conftest import rounds_cap
from repro.cuts.cache import CutFunctionCache
from repro.engine import EngineConfig
from repro.engine.core import run_circuit, select_cases
from repro.mc import McDatabase
from repro.rewriting import cost_model

RESULTS_DIR = Path(__file__).parent / "results"

CONTROL = ["arbiter", "alu_ctrl", "cavlc", "decoder", "i2c", "int2float",
           "mem_ctrl", "priority", "router", "voter"]
#: crypto registry rows small enough to race four flows in pure Python.
CRYPTO = ["adder_32", "comparator_ult_32", "multiplier_32"]
MODELS = ("mc", "size", "mc-depth", "fhe")

#: engine-default invocation pinned by ``--smoke``: ``--cost mc`` on the
#: default two rounds must keep producing these (ANDs, depth) pairs.
MC_GOLDEN = {"int2float": (72, 15), "router": (61, 6)}

_DB = McDatabase()
_CUT_CACHE = CutFunctionCache(_DB)
_ROWS = {}


def _case(name, suite):
    config = EngineConfig(suites=(suite,), circuits=[name])
    return select_cases(config)[0]


def _run_row(name, suite):
    case = _case(name, suite)
    initial = case.build()
    cap = rounds_cap(initial.num_ands)
    row = {"name": name, "group": case.group,
           "initial": (initial.num_ands, None)}
    for objective in MODELS:
        config = EngineConfig(suites=(suite,), circuits=[name],
                              objective=objective, max_rounds=cap)
        start = time.perf_counter()
        report = run_circuit(case, config, cut_cache=_CUT_CACHE)
        seconds = time.perf_counter() - start
        assert report.error is None, f"{name}/{objective}: {report.error}"
        row["initial"] = (report.ands_before, report.depth_before)
        row[objective] = {"report": report, "seconds": seconds}
    _ROWS[name] = row
    return row


def _check_contracts(row):
    ands_before, depth_before = row["initial"]
    for objective in MODELS:
        report = row[objective]["report"]
        model = cost_model(objective)
        assert report.cost_model == model.name, row["name"]
        assert report.verified is True, f"{row['name']}/{objective}: unverified"
        assert report.ands_after <= ands_before, \
            f"{row['name']}/{objective}: AND count increased"
        assert report.cost_after <= report.cost_before, \
            f"{row['name']}/{objective}: own metric worsened " \
            f"({report.cost_before} -> {report.cost_after})"
        if model.depth_aware:
            assert report.depth_after <= depth_before, \
                f"{row['name']}/{objective}: depth increased"


@pytest.mark.parametrize("name", CONTROL)
def test_cost_models_control_row(name):
    _check_contracts(_run_row(name, "epfl"))


@pytest.mark.parametrize("name", CRYPTO)
def test_cost_models_crypto_row(name):
    _check_contracts(_run_row(name, "crypto"))


def test_cost_models_report():
    if not _ROWS:
        pytest.skip("no rows measured")
    lines = [
        "# Cost models compared",
        "",
        "Every registered cost model run through the engine path (canonical",
        "flow per model, shared database/caches, reduced-scale netlists,",
        "convergence-round caps as in the other benchmarks).  Cells are",
        "`ANDs/depth` (multiplicative depth) plus the model's own metric in",
        "parentheses where it is not the AND count: `size` reports total",
        "gates, `fhe` reports noise-budget levels (`8*depth + ANDs`).",
        "",
        "| circuit | group | initial | mc | size | mc-depth | fhe |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for name in CONTROL + CRYPTO:
        row = _ROWS.get(name)
        if row is None:
            continue
        cells = []
        for objective in MODELS:
            report = row[objective]["report"]
            cell = f"{report.ands_after}/{report.depth_after}"
            if cost_model(objective).metric_name != "ANDs":
                cell += f" ({report.cost_after})"
            cells.append(f"{cell} ({row[objective]['seconds']:.1f}s)")
        lines.append(
            f"| {row['name']} | {row['group']} "
            f"| {row['initial'][0]}/{row['initial'][1]} "
            f"| {' | '.join(cells)} |")
    depth_rows = [row for name, row in _ROWS.items()
                  if row["group"] != "mpc"]
    if depth_rows:
        fhe_wins = sum(1 for row in depth_rows
                       if row["fhe"]["report"].depth_after <
                       row["mc"]["report"].depth_after)
        lines += ["",
                  f"`fhe` ends strictly shallower than `mc` on {fhe_wins} of "
                  f"{len(depth_rows)} control circuits; depth-aware models "
                  "never deepen, and every model improves (or preserves) its "
                  "own metric on every row."]
    body = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "cost_models.md").write_text(body)
    print("\n" + body)


# ----------------------------------------------------------------------
# CI smoke entry point
# ----------------------------------------------------------------------
def smoke(circuits=("int2float", "router")) -> int:
    """Quick cost-model contract check for CI.

    ``mc`` must reproduce the pre-refactor engine goldens exactly (the
    cost-model objects are a refactor, not a behaviour change), and ``fhe``
    must satisfy its contract: verified, never more ANDs, never deeper,
    never a worse noise metric.
    """
    ok = True
    for name in circuits:
        case = _case(name, "epfl")
        start = time.perf_counter()
        mc = run_circuit(case, EngineConfig(suites=("epfl",), circuits=[name],
                                            objective="mc"))
        fhe = run_circuit(case, EngineConfig(suites=("epfl",), circuits=[name],
                                            objective="fhe"))
        seconds = time.perf_counter() - start
        good = mc.error is None and fhe.error is None
        pair = (mc.ands_after, mc.depth_after)
        golden = MC_GOLDEN.get(name)
        if golden is not None and pair != golden:
            print(f"smoke {name}: mc parity drift — expected {golden}, "
                  f"got {pair}")
            good = False
        good = good and mc.verified is True and fhe.verified is True
        good = good and fhe.ands_after <= fhe.ands_before
        good = good and fhe.depth_after <= fhe.depth_before
        good = good and fhe.cost_after <= fhe.cost_before
        good = good and fhe.cost_model == "fhe"
        ok = ok and good
        print(f"smoke {name}: mc {pair} "
              f"fhe {fhe.ands_after}/{fhe.depth_after} "
              f"(noise {fhe.cost_before}->{fhe.cost_after}) "
              f"in {seconds:.1f}s -> {'OK' if good else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="Cost-model comparison benchmark (run under pytest for "
                    "the full table; --smoke pins the mc parity goldens and "
                    "the fhe contract)")
    parser.add_argument("--smoke", action="store_true",
                        help="check mc reproduces the pre-refactor goldens "
                             "and fhe satisfies its contract")
    parser.add_argument("--circuits", default="int2float,router",
                        help="comma-separated EPFL circuits for --smoke")
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run this module under pytest, or pass --smoke")
    sys.exit(smoke(tuple(args.circuits.split(","))))

#!/usr/bin/env python3
"""Plug a custom cost model into the rewriting engine.

Every pricing decision of the cut rewriter goes through a
:class:`repro.rewriting.CostModel` (see README, *Cost models*): which
candidate wins a node, which candidates are vetoed outright, when a round
counts as progress, and which scalar the reports print.  This example
implements a **garbled-circuit communication** model: under the free-XOR
technique XOR gates travel for free and every AND gate costs two ciphertexts
(half-gates), so the wire cost of a circuit is ``2 * kappa * ANDs`` bits for
a security parameter ``kappa``.

Registering the model makes ``"gc"`` a flow-script atom and a ``--cost``
choice of the engine — no rewriter, pipeline or CLI changes needed.

Run::

    python examples/custom_cost.py [circuit]      # default: int2float
"""

import sys

from repro import equivalent, parse_flow, run_pipeline
from repro.engine import EngineConfig
from repro.engine.core import run_circuit, select_cases
from repro.rewriting import (CostModel, RewriteParams, cost_model,
                             register_cost_model)


class GarbledCircuitCost(CostModel):
    """Free-XOR garbled-circuit communication: two ciphertexts per AND.

    Pricing is AND-first like the paper's ``mc`` objective — only AND gates
    are transmitted — but ties between equal-AND candidates are broken
    toward fewer total gates, since every gate still costs garbling time.
    """

    name = "gc"
    description = "garbled-circuit wire bits (free-XOR, half-gates)"
    metric_name = "kbits"
    # the smallest AND gain `acceptable` takes.  The rewriter skips the plan
    # lookup of every cut that provably cannot reach it, or whose best case
    # `acceptable` refuses or `key` ranks below the node's incumbent.
    min_and_gain = 1

    def __init__(self, kappa=128):
        self.kappa = kappa  # ciphertext width (security parameter)

    def key(self, candidate):
        return (candidate.gain_ands, candidate.gain_gates)

    def acceptable(self, candidate):
        return candidate.gain_ands > 0

    def made_progress(self, stats):
        return stats.ands_after < stats.ands_before

    def metric(self, ands, xors, depth):
        # kilobits on the wire: 2 ciphertexts of kappa bits per AND gate
        return 2 * self.kappa * ands // 1000


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "int2float"
    model = register_cost_model(GarbledCircuitCost())
    assert cost_model("gc") is model

    # 1. the registered name is a flow-script atom, exactly like "mc"
    case = select_cases(EngineConfig(suites=("epfl",), circuits=[name]))[0]
    xag = case.build()
    result = run_pipeline(xag, parse_flow("gc,gc*"),
                          params=RewriteParams(objective=model))
    assert equivalent(xag, result.final)
    print(f"{name}: flow 'gc,gc*' -> {result.final.num_ands} AND "
          f"({model.metric(result.final.num_ands, result.final.num_xors, 0)} "
          f"kbits on the wire), verified {result.verified}")

    # 2. and a valid engine objective: reports pick up the model's metric
    report = run_circuit(case, EngineConfig(suites=("epfl",), circuits=[name],
                                            objective="gc"))
    assert report.error is None
    print(f"{name}: engine --cost gc -> {report.ands_after} AND, "
          f"{report.cost_before} -> {report.cost_after} {model.metric_name}")


if __name__ == "__main__":
    main()

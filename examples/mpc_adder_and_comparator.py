#!/usr/bin/env python3
"""MPC scenario: minimise the AND gates of an adder and a comparator.

In Yao-style secure two-party computation with the free-XOR technique the
cost of evaluating a garbled circuit is proportional to its number of AND
gates; XOR gates are free.  This example builds the 32-bit adder and the
32-bit unsigned comparator from the paper's Table 2, optimises them, exports
Bristol-Fashion netlists (the format MPC frameworks consume), and reports the
garbling cost before and after.
"""

from repro import McDatabase, RewriteParams, equivalent, optimize
from repro.circuits.arithmetic import adder, comparator
from repro.io import write_bristol

#: ciphertexts per AND gate for half-gates garbling (Zahur-Rosulek-Evans).
CIPHERTEXTS_PER_AND = 2


def garbling_cost(num_ands: int) -> str:
    return f"{CIPHERTEXTS_PER_AND * num_ands} ciphertexts"


def main() -> None:
    database = McDatabase()           # shared across both circuits (recipes are reused)
    params = RewriteParams(cut_size=6, cut_limit=12)

    for name, circuit, widths in (
        ("32-bit adder", adder(32), ([32, 32], [32, 1])),
        ("32-bit unsigned <", comparator(32, signed=False, strict=True), ([32, 32], [1])),
    ):
        result = optimize(circuit, database=database, params=params)
        optimised = result.final
        assert equivalent(circuit, optimised)
        print(f"{name}")
        print(f"  before : {circuit.num_ands:4d} AND / {circuit.num_xors:4d} XOR "
              f"-> {garbling_cost(circuit.num_ands)}")
        print(f"  after  : {optimised.num_ands:4d} AND / {optimised.num_xors:4d} XOR "
              f"-> {garbling_cost(optimised.num_ands)}")
        print(f"  saving : {100 * (1 - optimised.num_ands / circuit.num_ands):.0f}% of the "
              f"garbled-circuit cost, {len(result.rounds)} rewriting rounds")

        bristol = write_bristol(optimised, *widths)
        print(f"  Bristol-Fashion netlist: {len(bristol.splitlines())} lines "
              f"(first line: {bristol.splitlines()[0]!r})")
        print()

    stats = database.stats()
    print(f"shared database: {stats['stored_recipes']} representative recipes, "
          f"classification cache hit rate {stats['classification_hit_rate']:.0%}")


if __name__ == "__main__":
    main()

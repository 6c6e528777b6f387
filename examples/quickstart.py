#!/usr/bin/env python3
"""Quickstart: minimise the AND count of the paper's full-adder example.

This reproduces the running example of the paper (Fig. 1 → Fig. 2): a full
adder described with the conventional 3-AND structure is rewritten down to a
single AND gate — its multiplicative complexity.
"""

from repro import Xag, optimize, RewriteParams, equivalent, multiplicative_depth
from repro.xag import to_dot


def build_full_adder() -> Xag:
    """Fig. 1(a): sum = a ^ b ^ cin, cout = ab OR cin(a ^ b)."""
    xag = Xag()
    xag.name = "full_adder"
    a, b, cin = xag.create_pis(3)
    a_xor_b = xag.create_xor(a, b)
    xag.create_po(xag.create_xor(a_xor_b, cin), "sum")
    xag.create_po(xag.create_or(xag.create_and(a, b), xag.create_and(cin, a_xor_b)), "cout")
    return xag


def main() -> None:
    full_adder = build_full_adder()
    print(f"initial circuit : {full_adder.num_ands} AND, {full_adder.num_xors} XOR, "
          f"multiplicative depth {multiplicative_depth(full_adder)}")

    result = optimize(full_adder, params=RewriteParams(cut_size=3))
    optimised = result.final
    print(f"optimised       : {optimised.num_ands} AND, {optimised.num_xors} XOR, "
          f"multiplicative depth {multiplicative_depth(optimised)}")
    print(f"rounds executed : {len(result.rounds)}")
    print(f"equivalent      : {equivalent(full_adder, optimised)}")

    print("\nGraphviz DOT of the optimised adder (paper Fig. 2(c)):\n")
    print(to_dot(optimised))


if __name__ == "__main__":
    main()

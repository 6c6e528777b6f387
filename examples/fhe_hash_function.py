#!/usr/bin/env python3
"""FHE scenario: reduce the multiplicative cost of a hash-function circuit.

Under fully homomorphic encryption XOR gates are essentially free while every
AND gate multiplies ciphertexts and consumes noise budget; both the AND count
and the multiplicative depth matter.  This example optimises a reduced-round
MD5 compression function (use ``--steps 64`` for the full function — slower in
pure Python) and reports both metrics, mirroring the MD5 row of Table 2 where
the paper removes 68 % of the AND gates.
"""

import argparse
import hashlib

from repro import RewriteParams, optimize
from repro.circuits.crypto import hash_common as H
from repro.circuits.crypto.md5 import md5_block
from repro.xag import multiplicative_depth, simulate_pattern


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=8,
                        help="number of MD5 steps to instantiate (64 = full MD5)")
    parser.add_argument("--rounds", type=int, default=1,
                        help="rewriting rounds (more rounds keep improving the circuit)")
    args = parser.parse_args()

    circuit = md5_block(num_steps=args.steps)
    print(f"MD5 ({args.steps} steps): {circuit.num_ands} AND / {circuit.num_xors} XOR, "
          f"multiplicative depth {multiplicative_depth(circuit)}")

    result = optimize(circuit,
                      params=RewriteParams(cut_size=6, cut_limit=12, verify=False),
                      max_rounds=args.rounds)
    optimised = result.final
    print(f"after {len(result.rounds)} round(s):   {optimised.num_ands} AND / "
          f"{optimised.num_xors} XOR, multiplicative depth {multiplicative_depth(optimised)}")
    print(f"AND reduction: {100 * result.and_improvement:.0f}% "
          f"(paper, full MD5, until convergence: 68%)")

    if args.steps == 64:
        # with the full compression function the circuit is real MD5: check it
        message = b"fully homomorphic hashing"
        words = H.pack_block_little_endian(message)
        outputs = simulate_pattern(optimised, H.block_to_input_bits(words))
        digest = H.digest_from_outputs(outputs, 4, "little")
        assert digest == hashlib.md5(message).digest()
        print(f"optimised circuit still computes MD5: {digest.hex()}")


if __name__ == "__main__":
    main()

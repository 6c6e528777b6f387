"""MD5 compression-function circuit (one 512-bit block).

The circuit takes the sixteen 32-bit message words of an already padded block
and produces the 128-bit digest of a single-block message (the standard IV is
baked in and added back at the end).  All round constants are derived from
``sin`` as specified by RFC 1321, so nothing is copied from external tables;
correctness is validated against :mod:`hashlib` in the test suite.

The AND gates come from the 64 modular additions chains and the bitwise
F/G/I selection functions, which is exactly the structure behind the paper's
Table 2 MD5 row (29 084 AND gates before optimisation, 9 381 after).
"""

from __future__ import annotations

import math
from typing import List

from repro.circuits.crypto import hash_common as H
from repro.xag.graph import Xag

#: per-step left-rotation amounts (RFC 1321).
SHIFTS = ([7, 12, 17, 22] * 4) + ([5, 9, 14, 20] * 4) + ([4, 11, 16, 23] * 4) + ([6, 10, 15, 21] * 4)
#: sine-derived additive constants (RFC 1321).
CONSTANTS = [int(abs(math.sin(i + 1)) * (1 << 32)) & 0xFFFFFFFF for i in range(64)]
#: initial state (RFC 1321).
INITIAL_STATE = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]


def md5_block(num_steps: int = 64, style: str = "naive") -> Xag:
    """MD5 compression circuit; ``num_steps`` can be lowered for reduced-scale runs."""
    xag = Xag()
    xag.name = "md5" if num_steps == 64 else f"md5_{num_steps}steps"
    message = H.message_words(xag)
    state = [_constant_word(xag, value) for value in INITIAL_STATE]
    a, b, c, d = state

    for step in range(num_steps):
        if step < 16:
            mixed = H.choose(xag, b, c, d, style=style)          # F
            message_index = step
        elif step < 32:
            mixed = H.choose(xag, d, b, c, style=style)          # G = (d & b) | (~d & c)
            message_index = (5 * step + 1) % 16
        elif step < 48:
            mixed = H.parity(xag, b, c, d)                       # H
            message_index = (3 * step + 5) % 16
        else:
            mixed = _i_function(xag, b, c, d)                    # I
            message_index = (7 * step) % 16
        total = H.add32_many(
            xag,
            [a, mixed, message[message_index],
             _constant_word(xag, CONSTANTS[step])],
            style=style,
        )
        rotated = H.rotl32(total, SHIFTS[step])
        new_b = H.add32(xag, b, rotated, style=style)
        a, b, c, d = d, new_b, b, c

    digest = [
        H.add_constant32(xag, a, INITIAL_STATE[0], style=style),
        H.add_constant32(xag, b, INITIAL_STATE[1], style=style),
        H.add_constant32(xag, c, INITIAL_STATE[2], style=style),
        H.add_constant32(xag, d, INITIAL_STATE[3], style=style),
    ]
    H.output_words(xag, digest)
    return xag


def _i_function(xag: Xag, x, y, z) -> List[int]:
    """I(x, y, z) = y XOR (x OR NOT z)."""
    return [xag.create_xor(yb, xag.create_or(xb, xag.create_not(zb)))
            for xb, yb, zb in zip(x, y, z)]


def _constant_word(xag: Xag, value: int) -> List[int]:
    from repro.circuits import word as W

    return W.constant_word(xag, value, H.WORD_BITS)

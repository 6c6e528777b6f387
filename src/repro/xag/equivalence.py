"""Combinational equivalence checking between XAGs.

Small networks are compared by exhaustive truth-table simulation (a complete
proof).  Larger networks are compared by packed random simulation: all
``num_random_words * word_bits`` random patterns are stuffed into one big-int
word per primary input and both networks are simulated in a **single**
topological pass each — the seed implementation looped ``num_random_words``
times over the full network, which dominated the cost of every verified
rewriting round.

Both networks are simulated from scratch on every call.  The per-round
checks of the optimisation flows compare PO words the same way, through
:class:`repro.xag.bitsim.BitSimulator`, under :func:`equivalence_stimulus`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.tt.bits import projection, table_mask
from repro.xag.graph import Xag
from repro.xag.simulate import simulate_words


def equivalence_stimulus(num_pis: int, exhaustive_limit: int = 14,
                         num_random_words: int = 64, word_bits: int = 64,
                         rng: Optional[random.Random] = None) -> Tuple[List[int], int, bool]:
    """Canonical packed stimulus used by :func:`equivalent`.

    Returns ``(pi_words, mask, exhaustive)``.  With at most
    ``exhaustive_limit`` inputs the words are the projection truth tables (so
    comparing outputs is a complete proof); otherwise they pack
    ``num_random_words * word_bits`` pseudo-random patterns.  The default rng
    is seeded, which makes the stimulus a pure function of the signature, so
    a network's words before and after a rewriting round are comparable.
    """
    if num_pis <= exhaustive_limit:
        return ([projection(var, num_pis) for var in range(num_pis)],
                table_mask(num_pis), True)
    total_bits = num_random_words * word_bits
    rng = rng or random.Random(0xC0FFEE)
    mask = (1 << total_bits) - 1
    return [rng.getrandbits(total_bits) for _ in range(num_pis)], mask, False


def equivalent(
    left: Xag,
    right: Xag,
    exhaustive_limit: int = 14,
    num_random_words: int = 64,
    word_bits: int = 64,
    rng: Optional[random.Random] = None,
) -> bool:
    """Check functional equivalence of two networks.

    Networks with up to ``exhaustive_limit`` primary inputs are compared by
    exhaustive truth-table simulation (a complete proof).  Larger networks are
    compared by packed random simulation, which can only disprove
    equivalence; for the sizes handled in this library the random check is
    used as a strong smoke test and is documented as such.
    """
    if left.num_pis != right.num_pis or left.num_pos != right.num_pos:
        return False
    words, mask, _ = equivalence_stimulus(left.num_pis, exhaustive_limit,
                                          num_random_words, word_bits, rng)
    return (simulate_words(left, words, mask)
            == simulate_words(right, words, mask))

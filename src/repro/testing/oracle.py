"""Independent equivalence oracle used by tests and the differential harness.

Everything here simulates with :func:`repro.xag.simulate.simulate_words`
directly — *never* through the :class:`repro.xag.bitsim.BitSimulator` that
an optimisation flow verifies its rounds with — so a bug in the flow's
verification cannot make the oracle agree with the network it is supposed
to check.  :func:`merge_entries` puts a one-shot cut enumeration into the
layout the incremental cut-set cache maintains, so the two can be compared
entry by entry.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.cuts.cut import Cut
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import Xag
from repro.xag.simulate import simulate_words


def merge_entries(xag: Xag, cuts: Dict[int, List[Cut]]
                  ) -> Dict[int, List[Tuple[Tuple[int, ...], int, bool]]]:
    """``cuts`` (from :func:`repro.cuts.enumeration.enumerate_cuts`) in the
    layout :meth:`repro.cuts.enumeration.CutSetCache.cuts` returns.

    Each gate maps to the ``(leaves, table, has_and)`` of its cuts, in
    order, followed by its trivial cut ``((gate,), 0b10, False)``; a
    primary input maps to its trivial cut alone and the constant to
    ``[((), 0, False)]``.
    """
    entries: Dict[int, List[Tuple[Tuple[int, ...], int, bool]]] = {}
    for node, node_cuts in cuts.items():
        if xag.is_constant(node):
            entries[node] = [((), 0, False)]
            continue
        entries[node] = [(cut.leaves, cut.table, cut.has_and)
                         for cut in node_cuts]
        entries[node].append(((node,), 0b10, False))
    return entries


def reference_stimulus(num_pis: int, num_random_words: int = 64,
                       rng: Optional[random.Random] = None
                       ) -> Tuple[List[int], int, bool]:
    """The canonical packed stimulus (exhaustive for small PI counts)."""
    return equivalence_stimulus(num_pis, num_random_words=num_random_words,
                                rng=rng)


def reference_words(xag: Xag, num_random_words: int = 64,
                    rng: Optional[random.Random] = None) -> List[int]:
    """Fresh (cache-free) packed PO words under the canonical stimulus."""
    words, mask, _ = reference_stimulus(xag.num_pis, num_random_words, rng)
    return simulate_words(xag, words, mask)


def find_counterexample(left: Xag, right: Xag,
                        num_random_words: int = 64) -> Optional[List[int]]:
    """A PI assignment where the networks differ, or ``None``.

    Interface mismatches (different PI/PO counts) report the all-zero
    pattern, because no single assignment can witness them.
    """
    if left.num_pis != right.num_pis or left.num_pos != right.num_pos:
        return [0] * max(left.num_pis, right.num_pis)
    words, mask, _ = reference_stimulus(left.num_pis, num_random_words)
    left_words = simulate_words(left, words, mask)
    right_words = simulate_words(right, words, mask)
    for left_word, right_word in zip(left_words, right_words):
        difference = left_word ^ right_word
        if difference:
            bit = (difference & -difference).bit_length() - 1
            return [(word >> bit) & 1 for word in words]
    return None


def assert_equivalent(left: Xag, right: Xag, context: str = "",
                      num_random_words: int = 64) -> None:
    """Raise ``AssertionError`` with a concrete counterexample pattern."""
    pattern = find_counterexample(left, right, num_random_words)
    if pattern is None:
        return
    prefix = f"{context}: " if context else ""
    raise AssertionError(
        f"{prefix}networks differ "
        f"({left.num_pis}/{left.num_pos} vs {right.num_pis}/{right.num_pos} "
        f"PIs/POs) on input pattern {pattern}")

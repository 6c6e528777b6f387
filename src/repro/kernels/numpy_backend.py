"""NumPy kernel backend: the batched cut-cone simulation.

numpy is imported by the kernel itself, on its first call, so selecting
this backend costs no numpy import; :mod:`repro.kernels` offers it only
when numpy is installed and keeps the pure-Python reference backend active
otherwise.

:meth:`NumpyBackend.simulate_cones` is the one kernel left here.  It
evaluates a list of cut cones in one level-ordered ``uint64`` sweep and is
bit-exact against the per-cone big-int reference (pinned by
``tests/test_kernels.py``).  Candidate selection no longer calls it: cut
tables come from the cut merge.  Truth tables, classification and packed
verification run on the pure-Python reference on every backend.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.tt.bits import projection, table_mask

_WORD_MASK = (1 << 64) - 1


class NumpyBackend:
    """Vectorised batched cone simulation (bit-exact vs python)."""

    name = "numpy"
    accelerated = True

    def simulate_cones(
        self, xag, requests: Sequence[Tuple[int, Tuple[int, ...], Sequence[int]]],
    ) -> List[int]:
        """Evaluate many cut cones in one vectorised level-ordered sweep.

        ``requests`` holds ``(root, leaves, interior)`` triples (interior in
        topological order, as produced by ``cut_cone``).  All cones share one
        slot space: slot 0 is constant false, slots 1..6 hold the 6-variable
        projection words, and every interior node of every cone gets a
        private slot.  Evaluating with 6-variable projections and masking
        the result to ``table_mask(len(leaves))`` matches the per-cone
        reference exactly, because an ``n``-variable projection is the low
        ``2**n`` rows of the 6-variable one.  A cone with more than 6 leaves
        fits neither the 6 projection slots nor one word; it is simulated by
        the per-cone reference instead.
        """
        import numpy as np

        from repro.cuts.cache import _simulate_cone

        u64 = np.uint64
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        and_kind = 2  # NodeKind.AND
        num_slots = 7
        out_slots: List[int] = []
        a_slots: List[int] = []
        a_flips: List[int] = []
        b_slots: List[int] = []
        b_flips: List[int] = []
        and_flags: List[bool] = []
        levels: List[int] = []
        root_slots: List[Tuple[int, int]] = []  # (slot, num_vars) per request
        wide: Dict[int, int] = {}  # request index → reference table

        for index, (root, leaves, interior) in enumerate(requests):
            if len(leaves) > 6:
                wide[index] = _simulate_cone(xag, root, leaves, interior)
                root_slots.append((0, 0))
                continue
            slot_of: Dict[int, int] = {0: 0}
            slot_level: Dict[int, int] = {0: 0}
            for position, leaf in enumerate(leaves):
                slot_of[leaf] = 1 + position
                slot_level[leaf] = 0
            for node in interior:
                f0 = fanin0[node]
                f1 = fanin1[node]
                slot_a = slot_of[f0 >> 1]
                slot_b = slot_of[f1 >> 1]
                level = max(slot_level[f0 >> 1], slot_level[f1 >> 1]) + 1
                slot = num_slots
                num_slots += 1
                slot_of[node] = slot
                slot_level[node] = level
                out_slots.append(slot)
                a_slots.append(slot_a)
                a_flips.append(f0 & 1)
                b_slots.append(slot_b)
                b_flips.append(f1 & 1)
                and_flags.append(kinds[node] == and_kind)
                levels.append(level)
            root_slots.append((slot_of[root], len(leaves)))

        values = np.zeros(num_slots, dtype=u64)
        for var in range(6):
            values[1 + var] = projection(var, 6)
        if out_slots:
            out_arr = np.array(out_slots, dtype=np.int64)
            a_arr = np.array(a_slots, dtype=np.int64)
            b_arr = np.array(b_slots, dtype=np.int64)
            a_mask = np.where(np.array(a_flips, dtype=bool),
                              u64(_WORD_MASK), u64(0))
            b_mask = np.where(np.array(b_flips, dtype=bool),
                              u64(_WORD_MASK), u64(0))
            is_and = np.array(and_flags, dtype=bool)
            level_arr = np.array(levels, dtype=np.int64)
            order = np.argsort(level_arr, kind="stable")
            ordered_levels = level_arr[order]
            boundaries = np.searchsorted(
                ordered_levels, np.arange(1, ordered_levels[-1] + 2))
            start = 0
            for end in boundaries:
                if end == start:
                    continue
                batch = order[start:end]
                a = values[a_arr[batch]] ^ a_mask[batch]
                b = values[b_arr[batch]] ^ b_mask[batch]
                ands = is_and[batch]
                result = np.where(ands, a & b, a ^ b)
                values[out_arr[batch]] = result
                start = end
        return [wide[index] if index in wide
                else int(values[slot]) & table_mask(num_vars)
                for index, (slot, num_vars) in enumerate(root_slots)]

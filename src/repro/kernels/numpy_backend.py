"""NumPy kernel backend: packed words as fixed-width ``uint64`` arrays.

Importing this module requires numpy; :mod:`repro.kernels` catches the
:class:`ImportError` and keeps the pure-Python reference backend active.

Every kernel here is **bit-exact** against its big-int reference
implementation (pinned by ``tests/test_kernels.py``): the arrays are just
a different container for the same packed bits, little-endian — word ``w``
of a table holds rows ``64*w .. 64*w + 63``, matching
``int.to_bytes(..., "little")``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tt.bits import projection, table_mask

_WORD_MASK = (1 << 64) - 1
_U64 = np.uint64

#: parity of an 8-bit value (for GF(2) inner products of row masks).
_PARITY8 = np.array([bin(i).count("1") & 1 for i in range(256)], dtype=np.uint8)


def _to_words(value: int, num_words: int) -> np.ndarray:
    """Little-endian ``uint64`` view of a non-negative big int (copied)."""
    data = value.to_bytes(num_words * 8, "little")
    return np.frombuffer(data, dtype=_U64).copy()


def _from_words(words: np.ndarray) -> int:
    """Inverse of :func:`_to_words`."""
    return int.from_bytes(words.tobytes(), "little")


def _unpack_bits(table: int, size: int) -> np.ndarray:
    """Rows of a truth table as a ``uint8`` 0/1 array (row 0 first)."""
    data = table.to_bytes((size + 7) >> 3, "little")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits[:size]


def _pack_bits(bits: np.ndarray) -> int:
    """Inverse of :func:`_unpack_bits` for a 0/1 ``uint8`` array."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class NumpyBackend:
    """Vectorised kernels over ``uint64`` words (bit-exact vs python)."""

    name = "numpy"
    accelerated = True

    #: largest variable count served by the dense Walsh/transform kernels
    #: (64 rows fit one word; 256-row Hadamard matrices stay tiny).
    MAX_DENSE_VARS = 8

    def __init__(self) -> None:
        self._hadamard_cache: Dict[int, np.ndarray] = {}
        #: (matrix rows, num_vars) → row permutation of f for offset 0.
        self._perm_cache: Dict[Tuple[Tuple[int, ...], int], np.ndarray] = {}
        self._projection_words: Dict[int, np.uint64] = {}

    # ------------------------------------------------------------------
    # Walsh spectrum
    # ------------------------------------------------------------------
    def _hadamard(self, num_vars: int) -> np.ndarray:
        matrix = self._hadamard_cache.get(num_vars)
        if matrix is None:
            matrix = np.array([[1]], dtype=np.int32)
            for _ in range(num_vars):
                matrix = np.block([[matrix, matrix], [matrix, -matrix]])
            self._hadamard_cache[num_vars] = matrix
        return matrix

    def walsh_spectrum(self, table: int, num_vars: int) -> List[int]:
        """``W[w] = sum_x (-1)^(f(x) ^ <w, x>)`` via one Hadamard matvec."""
        size = 1 << num_vars
        signs = 1 - 2 * _unpack_bits(table, size).astype(np.int32)
        return (self._hadamard(num_vars) @ signs).tolist()

    def table_from_spectrum(self, spectrum: Sequence[int], num_vars: int) -> int:
        """Inverse transform: ``H W = 2**n s``, bit = 1 where the sign is -1."""
        values = self._hadamard(num_vars) @ np.asarray(spectrum, dtype=np.int32)
        return _pack_bits((values < 0).astype(np.uint8))

    # ------------------------------------------------------------------
    # affine input transforms
    # ------------------------------------------------------------------
    def apply_input_transform(self, table: int, matrix: Sequence[int],
                              offset: int, num_vars: int) -> int:
        """``g(x) = f(A x ^ b)`` as one cached row-permutation gather.

        Row ``x`` of ``g`` reads row ``y = A x ^ b`` of ``f``; the map
        ``x → A x`` depends only on the matrix, so it is computed once
        (vectorised GF(2) inner products) and reused for every offset.
        """
        mask = table_mask(num_vars)
        table &= mask
        if table == 0 or table == mask:
            return table
        size = 1 << num_vars
        key = (tuple(matrix), num_vars)
        perm = self._perm_cache.get(key)
        if perm is None:
            if len(self._perm_cache) >= (1 << 14):
                self._perm_cache.clear()
            rows = np.array(matrix, dtype=np.uint32)
            products = np.arange(size, dtype=np.uint32)[:, None] & rows[None, :]
            parity = _PARITY8[products & 0xFF] ^ _PARITY8[products >> 8]
            weights = np.left_shift(
                np.uint32(1), np.arange(num_vars, dtype=np.uint32))
            perm = (parity.astype(np.uint32) * weights).sum(
                axis=1, dtype=np.uint32)
            self._perm_cache[key] = perm
        if offset:
            perm = perm ^ np.uint32(offset)
        return _pack_bits(_unpack_bits(table, size)[perm])

    # ------------------------------------------------------------------
    # wide truth-table butterflies (num_vars >= 7: multi-word tables)
    # ------------------------------------------------------------------
    def _projection_word(self, var: int) -> np.uint64:
        word = self._projection_words.get(var)
        if word is None:
            word = _U64(projection(var, 6))
            self._projection_words[var] = word
        return word

    def _table_words(self, table: int, num_vars: int) -> np.ndarray:
        return _to_words(table, 1 << (num_vars - 6))

    def _flip_words(self, words: np.ndarray, var: int) -> np.ndarray:
        if var < 6:
            upper = self._projection_word(var)
            lower = _U64(~projection(var, 6) & _WORD_MASK)
            shift = _U64(1 << var)
            return ((words & upper) >> shift) | ((words & lower) << shift)
        block = 1 << (var - 6)
        return words.reshape(-1, 2, block)[:, ::-1, :].reshape(-1)

    def flip_variable(self, table: int, var: int, num_vars: int) -> int:
        """``f(..., ~x_var, ...)`` on a multi-word table."""
        return _from_words(self._flip_words(self._table_words(table, num_vars), var))

    def translate_rows(self, table: int, delta: int, num_vars: int) -> int:
        """``f(x ^ delta)``: one strided flip per set bit of ``delta``."""
        words = self._table_words(table, num_vars)
        remaining = delta
        while remaining:
            low = remaining & -remaining
            words = self._flip_words(words, low.bit_length() - 1)
            remaining ^= low
        return _from_words(words)

    def swap_variables(self, table: int, var_a: int, var_b: int,
                       num_vars: int) -> int:
        """Delta-swap of two variables on a multi-word table."""
        if var_a == var_b:
            return table
        if var_a > var_b:
            var_a, var_b = var_b, var_a
        words = self._table_words(table, num_vars)
        if var_b < 6:
            movers_int = projection(var_a, 6) & ~projection(var_b, 6) & _WORD_MASK
            shift_int = (1 << var_b) - (1 << var_a)
            movers = _U64(movers_int)
            shift = _U64(shift_int)
            keep = _U64(~(movers_int | (movers_int << shift_int)) & _WORD_MASK)
            words = ((words & keep) | ((words & movers) << shift)
                     | ((words >> shift) & movers))
        elif var_a >= 6:
            # permute whole words: swap bits (a-6) and (b-6) of the word index
            index = np.arange(words.shape[0])
            diff = ((index >> (var_a - 6)) ^ (index >> (var_b - 6))) & 1
            source = index ^ ((diff << (var_a - 6)) | (diff << (var_b - 6)))
            words = words[source]
        else:
            # var_a indexes inside a word, var_b selects word blocks: rows
            # (x_a=1, x_b=0) trade with (x_a=0, x_b=1) across word pairs
            grouped = words.reshape(-1, 2, 1 << (var_b - 6))
            low_words = grouped[:, 0, :].copy()
            high_words = grouped[:, 1, :].copy()
            ones = self._projection_word(var_a)
            zeros = _U64(~projection(var_a, 6) & _WORD_MASK)
            shift = _U64(1 << var_a)
            grouped[:, 0, :] = (low_words & zeros) | ((high_words & zeros) << shift)
            grouped[:, 1, :] = (high_words & ones) | ((low_words & ones) >> shift)
            words = grouped.reshape(-1)
        return _from_words(words)

    # ------------------------------------------------------------------
    # batched cut-cone simulation
    # ------------------------------------------------------------------
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
        from repro.cuts.cache import _simulate_cone

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

        values = np.zeros(num_slots, dtype=_U64)
        for var in range(6):
            values[1 + var] = projection(var, 6)
        if out_slots:
            out_arr = np.array(out_slots, dtype=np.int64)
            a_arr = np.array(a_slots, dtype=np.int64)
            b_arr = np.array(b_slots, dtype=np.int64)
            a_mask = np.where(np.array(a_flips, dtype=bool),
                              _U64(_WORD_MASK), _U64(0))
            b_mask = np.where(np.array(b_flips, dtype=bool),
                              _U64(_WORD_MASK), _U64(0))
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

    # ------------------------------------------------------------------
    # packed-word simulator store
    # ------------------------------------------------------------------
    def make_sim_store(self, mask: int) -> Optional["SimStore"]:
        """Array store for a :class:`BitSimulator` with all-ones ``mask``.

        Returns ``None`` when the mask is not of the form ``2**w - 1`` —
        the big-int reference handles arbitrary masks, the array layout
        only contiguous widths.
        """
        width = mask.bit_length()
        if width == 0 or mask != (1 << width) - 1:
            return None
        return SimStore(width)


class SimStore:
    """``(num_nodes, words)`` ``uint64`` matrix of packed simulation values."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.words = (width + 63) >> 6
        self.mask_row = _to_words((1 << width) - 1, self.words)
        self.data = np.zeros((0, self.words), dtype=_U64)

    # -- sizing --------------------------------------------------------
    def resize(self, count: int) -> None:
        """Grow (zero-filled) or shrink to ``count`` rows, keeping a prefix."""
        current = self.data.shape[0]
        if count == current:
            return
        if count < current:
            self.data = self.data[:count].copy()
            return
        grown = np.zeros((count, self.words), dtype=_U64)
        if current:
            grown[:current] = self.data
        self.data = grown

    def __len__(self) -> int:
        return self.data.shape[0]

    # -- int <-> row ---------------------------------------------------
    def set_int(self, node: int, value: int) -> None:
        self.data[node] = _to_words(value, self.words)

    def get_int(self, node: int) -> int:
        return _from_words(self.data[node])

    def row_equals_int(self, node: int, value: int) -> bool:
        return bool((self.data[node] == _to_words(value, self.words)).all())

    def as_ints(self) -> List[int]:
        """Every row as a Python int (row 0 first)."""
        data = self.data.tobytes()
        stride = self.words * 8
        return [int.from_bytes(data[i * stride:(i + 1) * stride], "little")
                for i in range(self.data.shape[0])]


# ----------------------------------------------------------------------
# level-batched simulator sweeps (shared by BitSimulator's numpy mode)
# ----------------------------------------------------------------------

def _gate_masks(xag) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(is_gate, is_and, fanin0, fanin1) arrays over all node indices."""
    kind = np.array(xag._kind, dtype=np.int8)
    is_and = kind == 2   # NodeKind.AND
    is_gate = is_and | (kind == 3)  # NodeKind.XOR
    fanin0 = np.array(xag._fanin0, dtype=np.int64)
    fanin1 = np.array(xag._fanin1, dtype=np.int64)
    return is_gate, is_and, fanin0, fanin1


def _compute_gate_batch(store: SimStore, nodes: np.ndarray,
                        is_and: np.ndarray,
                        fanin0: np.ndarray, fanin1: np.ndarray) -> np.ndarray:
    """Vectorised AND/XOR evaluation of one topological level of gates."""
    data = store.data
    f0 = fanin0[nodes]
    f1 = fanin1[nodes]
    a = data[f0 >> 1]
    b = data[f1 >> 1]
    flip_a = (f0 & 1).astype(bool)
    flip_b = (f1 & 1).astype(bool)
    if flip_a.any():
        a = a.copy()
        a[flip_a] ^= store.mask_row
    if flip_b.any():
        b = b.copy()
        b[flip_b] ^= store.mask_row
    ands = is_and[nodes]
    return np.where(ands[:, None], a & b, a ^ b)


def _levelize(order: Sequence[int], fanin0: Sequence[int],
              fanin1: Sequence[int], is_gate_list: Sequence[bool],
              num_nodes: int) -> List[np.ndarray]:
    """Group a topological node order into per-level index arrays."""
    level = [0] * num_nodes
    buckets: List[List[int]] = []
    for node in order:
        if is_gate_list[node]:
            depth = 1 + max(level[fanin0[node] >> 1], level[fanin1[node] >> 1])
        else:
            depth = 0
        level[node] = depth
        while len(buckets) <= depth:
            buckets.append([])
        buckets[depth].append(node)
    return [np.array(bucket, dtype=np.int64) for bucket in buckets]


def sim_range(sim, start: int, end: int) -> None:
    """Numpy twin of ``BitSimulator._simulate_range`` (topo-clean suffix)."""
    store: SimStore = sim._store
    xag = sim.xag
    store.resize(max(len(store), end))
    kinds = xag._kind
    fanin0_list = xag._fanin0
    fanin1_list = xag._fanin1
    # small suffixes (plan inserts between queries) are cheaper row-by-row
    if end - start < 256:
        data = store.data
        mask_row = store.mask_row
        pi_position = None
        for node in range(start, end):
            kind = kinds[node]
            if kind == 2 or kind == 3:  # AND / XOR
                f0 = fanin0_list[node]
                f1 = fanin1_list[node]
                a = data[f0 >> 1]
                if f0 & 1:
                    a = a ^ mask_row
                b = data[f1 >> 1]
                if f1 & 1:
                    b = b ^ mask_row
                data[node] = (a & b) if kind == 2 else (a ^ b)
            elif kind == 1:  # PI
                if pi_position is None:
                    pi_position = {pi: i for i, pi in enumerate(xag.pis())}
                store.set_int(node, sim._pi_words[pi_position[node]] & sim.mask)
            else:
                data[node] = 0
        return
    is_gate, is_and, fanin0, fanin1 = _gate_masks(xag)
    pi_position = {pi: i for i, pi in enumerate(xag.pis())}
    for node in range(start, end):
        kind = kinds[node]
        if kind == 1:
            store.set_int(node, sim._pi_words[pi_position[node]] & sim.mask)
        elif not is_gate[node]:
            store.data[node] = 0
    is_gate_list = [kinds[node] in (2, 3) for node in range(len(kinds))]
    levels = _levelize(range(start, end), fanin0_list, fanin1_list,
                       is_gate_list, end)
    for bucket in levels:
        gates = bucket[is_gate[bucket]]
        if gates.size:
            store.data[gates] = _compute_gate_batch(
                store, gates, is_and, fanin0, fanin1)


def sim_resync(sim, count: int) -> Tuple[int, int]:
    """Numpy twin of ``BitSimulator._resync``: level-batched dirty sweep.

    Returns ``(appended, recomputed)`` with the same counts as the
    reference: a gate is evaluated when it is new, was rewired, or a
    fan-in's packed word changed, and value-change pruning stops the
    propagation exactly as in the big-int pass.
    """
    store: SimStore = sim._store
    xag = sim.xag
    store.resize(count)
    kinds = xag._kind
    fanin0_list = xag._fanin0
    fanin1_list = xag._fanin1
    order = list(xag.topological_order())
    is_gate, is_and, fanin0, fanin1 = _gate_masks(xag)
    new_start = sim._synced
    pending = np.zeros(count, dtype=bool)
    for node in sim._pending_dirty:
        if node < count:
            pending[node] = True
    changed = np.zeros(count, dtype=bool)
    pi_position = None
    appended = 0
    recomputed = 0
    is_gate_list = [kinds[node] in (2, 3) for node in range(len(kinds))]
    for bucket in _levelize(order, fanin0_list, fanin1_list,
                            is_gate_list, count):
        gates = bucket[is_gate[bucket]]
        if gates.size == 0:
            # level 0: set any newly appended PIs from the stimulus
            for node in bucket:
                if kinds[node] == 1 and node >= new_start:
                    if pi_position is None:
                        pi_position = {pi: i
                                       for i, pi in enumerate(xag.pis())}
                    store.set_int(int(node),
                                  sim._pi_words[pi_position[int(node)]]
                                  & sim.mask)
            continue
        f0 = fanin0[gates]
        f1 = fanin1[gates]
        is_new = gates >= new_start
        needed = (is_new | pending[gates]
                  | changed[f0 >> 1] | changed[f1 >> 1])
        if not needed.any():
            continue
        todo = gates[needed]
        words = _compute_gate_batch(store, todo, is_and, fanin0, fanin1)
        appended += int(is_new[needed].sum())
        recomputed += int(todo.size - is_new[needed].sum())
        differs = (words != store.data[todo]).any(axis=1)
        if differs.any():
            targets = todo[differs]
            store.data[targets] = words[differs]
            changed[targets] = True
    return appended, recomputed


def sim_propagate(sim, need: bytearray, changed_bytes: bytearray) -> int:
    """Numpy twin of ``BitSimulator._propagate`` (fanout invalidation)."""
    store: SimStore = sim._store
    xag = sim.xag
    count = xag.num_nodes
    kinds = xag._kind
    fanin0_list = xag._fanin0
    fanin1_list = xag._fanin1
    is_gate, is_and, fanin0, fanin1 = _gate_masks(xag)
    dead = np.frombuffer(bytes(xag._dead), dtype=np.uint8).astype(bool)
    need_arr = np.frombuffer(bytes(need), dtype=np.uint8).astype(bool)
    changed = np.frombuffer(bytes(changed_bytes), dtype=np.uint8).astype(bool)
    if len(changed) < count:
        changed = np.concatenate(
            [changed, np.zeros(count - len(changed), dtype=bool)])
    if xag.is_topo_clean():
        order: Sequence[int] = range(count)
    else:
        order = list(xag.topological_order())
    updated = 0
    is_gate_list = [kinds[node] in (2, 3) for node in range(len(kinds))]
    for bucket in _levelize(order, fanin0_list, fanin1_list,
                            is_gate_list, count):
        gates = bucket[is_gate[bucket] & ~dead[bucket]]
        if gates.size == 0:
            continue
        f0 = fanin0[gates]
        f1 = fanin1[gates]
        needed = need_arr[gates] | changed[f0 >> 1] | changed[f1 >> 1]
        if not needed.any():
            continue
        todo = gates[needed]
        words = _compute_gate_batch(store, todo, is_and, fanin0, fanin1)
        updated += int(todo.size)
        differs = (words != store.data[todo]).any(axis=1)
        if differs.any():
            targets = todo[differs]
            store.data[targets] = words[differs]
            changed[targets] = True
    return updated


def po_matrix(sim) -> np.ndarray:
    """``(num_pos, words)`` matrix of PO values (complements applied)."""
    store: SimStore = sim._store
    lits = np.array(sim.xag.po_literals(), dtype=np.int64)
    rows = store.data[lits >> 1].copy()
    flips = (lits & 1).astype(bool)
    if flips.any():
        rows[flips] ^= store.mask_row
    return rows

"""Affine classification of Boolean functions.

The classifier computes, for a given truth table ``f``, a *representative*
``r`` of its affine equivalence class together with the affine transform that
maps ``r`` back to ``f``.  Two strategies are implemented:

* ``exhaustive`` (n <= 3): enumerate the full affine group and pick the
  lexicographically smallest truth table — a perfect canonical form;
* ``spectral`` (any n, default for n >= 4): the greedy Rademacher–Walsh
  canonisation in the spirit of the paper's classification routine
  ([25], Miller & Soeken): move the largest-magnitude spectral coefficient to
  position 0 with disjoint translations, normalise its sign with an output
  complement, then place the largest reachable coefficients on the
  first-order positions ``e_1 .. e_n`` with variable swaps/translations and
  normalise their signs with input complements.  Ties are explored with
  bounded backtracking controlled by ``iteration_limit`` (the paper uses an
  iteration limit of 100 000 and omits classes that exceed it).  Each
  greedy state carries its truth table beside its signed spectral view and
  updates both with every operation (:class:`_State`), so finished states
  are compared by table without an inverse Walsh transform.

The greedy strategy is not guaranteed to be perfectly canonical for ties deep
in the spectrum; this only affects database/cache hit rates, never functional
correctness, because the returned transform is exact by construction and is
verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from repro import gf2
from repro.affine.operations import AffineOp, AffineTransform
from repro.tt.anf import degree
from repro.tt.bits import num_bits, popcount, projection, table_mask
from repro.tt.operations import (apply_input_transform, flip_variable,
                                 translate_rows, xor_with_variable)
from repro.tt.spectrum import walsh_spectrum


@dataclass
class Classification:
    """Result of classifying one function."""

    table: int
    num_vars: int
    representative: int
    #: transform mapping the *representative* back to the classified function:
    #: ``f(x) = representative(A x ^ b) ^ <c, x> ^ d``.
    from_representative: AffineTransform
    #: elementary operations mapping the classified function to the
    #: representative (paper Definition 2.1 direction).
    ops: List[AffineOp] = field(default_factory=list)
    #: classification strategy that produced the result.
    method: str = "spectral"
    #: False when the tie-exploration budget was exhausted (result still valid).
    canonical: bool = True

    def verify(self) -> bool:
        """Check that the stored transform indeed rebuilds the function."""
        return self.from_representative.apply_to_table(self.representative) == self.table


class _State:
    """Running canonisation state: a truth table beside its spectral view.

    Every operation the spectral strategy performs acts on the Walsh
    spectrum by a structured signed permutation: an input matrix ``M``
    permutes indices (``W'(w) = W(M^{-T} w)``), an input complement
    multiplies by ``(-1)^{w_a}``, an output complement negates everything
    and ``f ^ x_a`` translates indices by ``e_a``.  The state keeps the
    permuted spectrum and its magnitudes, together with a global sign and
    a sign-pattern vector, as the view

        ``W_state(w) = sign * (-1)^{<linear_sign, w>} * spectrum[w]``

    of its current truth table, which it carries alongside and updates
    with the same operation.  The magnitude queries and sign checks the
    greedy needs are O(1) reads (a position's candidates are the
    contiguous index range ``[2**p, 2**n)``), and a finished state is
    compared against the incumbent best by its :attr:`table` — no inverse
    Walsh transform.  Each operation costs a couple of C-level gathers and
    a few bit operations: a placement substitutes its memoised data
    (:func:`_placement_data`: delta swaps for the table, one
    ``itemgetter`` gather for the spectrum and the magnitudes, a lookup
    table for the sign vector), an input complement is one delta swap and
    an output XOR or complement one mask.  Spectrum and magnitudes are
    never modified in place, so a copy shares them.  The closed-form
    :class:`AffineTransform` is not maintained: the winner's forward
    transform is rebuilt at the end by replaying its op list (a
    transform's ``(A, b, c, d)`` is uniquely determined by the function
    map the ops compose to)."""

    __slots__ = ("num_vars", "size", "table", "spectrum", "magnitudes",
                 "sign", "linear_sign", "ops")

    def __init__(self, num_vars: int, table: int, spectrum: Sequence[int],
                 magnitudes: Sequence[int], sign: int, linear_sign: int,
                 ops: List[AffineOp]):
        self.num_vars = num_vars
        self.size = len(spectrum)
        self.table = table
        self.spectrum = spectrum
        self.magnitudes = magnitudes
        self.sign = sign
        self.linear_sign = linear_sign
        self.ops = ops

    @classmethod
    def initial(cls, num_vars: int, table: int, spectrum: Sequence[int],
                magnitudes: Sequence[int]) -> "_State":
        return cls(num_vars, table, spectrum, magnitudes, 1, 0, [])

    def copy(self) -> "_State":
        return _State(self.num_vars, self.table, self.spectrum,
                      self.magnitudes, self.sign, self.linear_sign,
                      list(self.ops))

    def coefficient(self, w: int) -> int:
        """Exact ``W_state[w]`` of the state's current table."""
        value = self.sign * self.spectrum[w]
        return -value if popcount(self.linear_sign & w) & 1 else value

    def xor_output(self, var: int) -> None:
        """``f ^= x_var``: spectrum indices translate by ``e_var``."""
        self.table = xor_with_variable(self.table, var, self.num_vars)
        translate = _translation(var, self.num_vars)
        self.spectrum = translate(self.spectrum)
        self.magnitudes = translate(self.magnitudes)
        if (self.linear_sign >> var) & 1:
            self.sign = -self.sign
        self.ops.append(AffineOp("xor_output", var))

    def flip_output(self) -> None:
        self.table ^= (1 << self.size) - 1
        self.sign = -self.sign
        self.ops.append(AffineOp("flip_output"))

    def flip_input(self, var: int) -> None:
        """``x_var`` complement: sign flip wherever ``w_var`` is set."""
        self.table = flip_variable(self.table, var, self.num_vars)
        self.linear_sign ^= 1 << var
        self.ops.append(AffineOp("flip_input", var))

    def apply_placement(self, source: int, position: int) -> None:
        """Substitute the memoised placement matrix ``x -> M x``."""
        ops, swaps, gather, sign_map = _placement_data(source, position,
                                                       self.num_vars)
        if not ops:
            return  # source is e_position already: M is the identity
        table = self.table
        for mask, shift in swaps:
            moved = (table ^ (table >> shift)) & mask
            table ^= moved ^ (moved << shift)
        self.table = table
        self.spectrum = gather(self.spectrum)
        self.magnitudes = gather(self.magnitudes)
        self.linear_sign = sign_map[self.linear_sign]
        self.ops.extend(ops)


class AffineClassifier:
    """Affine classification with configurable strategy and tie budget."""

    def __init__(self, exhaustive_limit: int = 3, iteration_limit: int = 64) -> None:
        self.exhaustive_limit = exhaustive_limit
        self.iteration_limit = iteration_limit
        self._group_cache: dict = {}
        self._linear_table_cache: dict = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def classify(self, table: int, num_vars: int) -> Classification:
        """Classify a function given by its truth table."""
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        table &= table_mask(num_vars)
        if num_vars <= self.exhaustive_limit:
            result = self._classify_exhaustive(table, num_vars)
        else:
            result = self._classify_spectral(table, num_vars)
        if not result.verify():  # pragma: no cover - defensive
            raise AssertionError("affine classification produced an invalid transform")
        return result

    # ------------------------------------------------------------------
    # exhaustive strategy (small n)
    # ------------------------------------------------------------------
    def _general_linear_group(self, num_vars: int) -> List[List[int]]:
        if num_vars in self._group_cache:
            return self._group_cache[num_vars]
        matrices: List[List[int]] = []
        size = num_bits(num_vars)

        def recurse(rows: List[int]) -> None:
            if len(rows) == num_vars:
                matrices.append(list(rows))
                return
            for candidate in range(1, size):
                rows.append(candidate)
                if gf2.rank(rows) == len(rows):
                    recurse(rows)
                rows.pop()

        if num_vars == 0:
            matrices.append([])
        else:
            recurse([])
        self._group_cache[num_vars] = matrices
        return matrices

    def _linear_output_tables(self, num_vars: int) -> List[int]:
        """Truth table of ``<linear, x>`` for every linear mask (cached)."""
        cached = self._linear_table_cache.get(num_vars)
        if cached is not None:
            return cached
        tables = [0] * num_bits(num_vars)
        for linear in range(1, len(tables)):
            low = linear & -linear
            tables[linear] = tables[linear ^ low] ^ projection(low.bit_length() - 1, num_vars)
        self._linear_table_cache[num_vars] = tables
        return tables

    def _classify_exhaustive(self, table: int, num_vars: int) -> Classification:
        """Lexicographically smallest table over the full affine group.

        The heavy input transform is applied once per invertible matrix; the
        ``2**n`` input offsets are swept with bit-parallel row translations
        (``f(A(x ^ c)) = f(Ax ^ Ac)``, and ``Ac`` covers every offset), and
        the ``2**n * 2`` output affine corrections are single XORs against
        precomputed linear tables.  This is ~``4**n`` times fewer full
        transform evaluations than enumerating the group tuple-wise.

        The search keeps the first strict minimum in enumeration order, so
        it stops as soon as the running minimum reaches the class minimum
        when that is known in advance (:func:`_class_minimum`, n <= 3):
        no later candidate could replace it.
        """
        size = num_bits(num_vars)
        mask = table_mask(num_vars)
        linear_tables = self._linear_output_tables(num_vars)
        floor = _class_minimum(table, num_vars)
        best_table: Optional[int] = None
        best_choice: Optional[Tuple[List[int], int, int, int]] = None
        for matrix in self._general_linear_group(num_vars):
            base = apply_input_transform(table, matrix, 0, num_vars)
            for translation in range(size):
                shifted = translate_rows(base, translation, num_vars)
                for linear in range(size):
                    candidate = shifted ^ linear_tables[linear]
                    if best_table is None or candidate < best_table:
                        best_table = candidate
                        best_choice = (matrix, translation, linear, 0)
                    candidate ^= mask
                    if candidate < best_table:
                        best_table = candidate
                        best_choice = (matrix, translation, linear, 1)
                if best_table == floor:
                    break
            if best_table == floor:
                break
        assert best_table is not None and best_choice is not None
        matrix, translation, linear, const = best_choice
        offset = gf2.mat_vec(matrix, translation)
        forward = AffineTransform(num_vars, list(matrix), offset, linear, const)
        representative = best_table
        return Classification(
            table=table,
            num_vars=num_vars,
            representative=representative,
            from_representative=forward.inverse(),
            ops=forward.to_ops(),
            method="exhaustive",
            canonical=True,
        )

    # ------------------------------------------------------------------
    # spectral strategy
    # ------------------------------------------------------------------
    def _classify_spectral(self, table: int, num_vars: int) -> Classification:
        budget = [self.iteration_limit]
        best: List[Optional[Tuple[int, List[AffineOp]]]] = [None]

        def consider(state: _State) -> None:
            candidate = state.table
            if best[0] is None or candidate < best[0][0]:
                best[0] = (candidate, list(state.ops))

        spectrum = walsh_spectrum(table, num_vars)
        magnitudes = [abs(value) for value in spectrum]
        size = num_bits(num_vars)
        max_magnitude = max(magnitudes)
        zero_targets = [w for w in range(size) if magnitudes[w] == max_magnitude]

        for index, target in enumerate(zero_targets):
            if index > 0 and (budget[0] <= 0 or best[0] is not None and index >= 4):
                break
            state = _State.initial(num_vars, table, spectrum, magnitudes)
            self._greedy_pass(state, target, budget, consider, allow_branching=(index == 0))

        assert best[0] is not None
        representative, ops = best[0]
        forward = AffineTransform.identity(num_vars)
        for op in ops:
            forward.apply_op(op)
        return Classification(
            table=table,
            num_vars=num_vars,
            representative=representative,
            from_representative=forward.inverse(),
            ops=ops,
            method="spectral",
            canonical=budget[0] > 0,
        )

    def _greedy_pass(self, state: _State, zero_target: int, budget: List[int],
                     consider: Callable[[_State], None], allow_branching: bool) -> None:
        """One canonisation pass; ties may spawn bounded greedy sub-passes."""
        budget[0] -= 1
        num_vars = state.num_vars
        size = state.size

        # Step 1: disjoint translations move the chosen coefficient to index 0,
        # an output complement makes it positive.
        if zero_target:
            for var in range(num_vars):
                if (zero_target >> var) & 1:
                    state.xor_output(var)
        if state.coefficient(0) < 0:
            state.flip_output()

        # Step 2: place the largest reachable coefficients on e_0 .. e_{n-1}.
        # Position p can take any index outside span(e_0 .. e_{p-1}): the
        # range [2**p, 2**n); ties are taken in index order.
        for position in range(num_vars):
            low = 1 << position
            magnitudes = state.magnitudes
            best = max(magnitudes[low:])
            first = magnitudes.index(best, low)

            if allow_branching and budget[0] > 0:
                for alternative in range(first + 1, size):
                    if magnitudes[alternative] != best:
                        continue
                    if budget[0] <= 0:
                        break
                    budget[0] -= 1
                    branch = state.copy()
                    self._place(branch, alternative, position)
                    self._finish_greedily(branch, position + 1)
                    consider(branch)

            self._place(state, first, position)

        consider(state)

    def _finish_greedily(self, state: _State, start_position: int) -> None:
        """Complete a pass without any further branching."""
        for position in range(start_position, state.num_vars):
            low = 1 << position
            magnitudes = state.magnitudes
            self._place(state, magnitudes.index(max(magnitudes[low:]), low),
                        position)

    def _place(self, state: _State, source: int, position: int) -> None:
        """Move the coefficient at ``source`` to ``e_position`` and fix its sign."""
        state.apply_placement(source, position)
        if state.coefficient(1 << position) < 0:
            state.flip_input(position)


#: num_vars → smallest table of the affine class of each algebraic degree
#: (for n <= 3 the degree alone fixes the class).
_CLASS_MINIMA = {0: (0,), 1: (0, 0), 2: (0, 0, 0x1), 3: (0, 0, 0x03, 0x01)}


def _class_minimum(table: int, num_vars: int) -> Optional[int]:
    """Smallest table affine-equivalent to ``table``, or ``None`` if unknown.

    Affine maps preserve the algebraic degree, and for ``n <= 3`` the
    functions of one degree form a single class (degree <= 1: the affine
    functions, minimum 0; degree 2 on two variables: ``x0 x1`` up to
    complements, minimum 1; on three: rank-2 quadratics, minimum ``0x03``;
    degree 3: one minterm up to affine terms, minimum ``0x01``).
    """
    minima = _CLASS_MINIMA.get(num_vars)
    if minima is None:
        return None
    return minima[degree(table, num_vars)]


#: (source, position, num_vars) → (elementary ops, table delta swaps,
#: spectrum gather, sign-vector map) — everything a spectral state needs to
#: substitute a placement matrix; built on first use.
_PLACEMENT_DATA_CACHE: dict = {}

#: (var, num_vars) → spectrum gather of ``f ^ x_var``; built on first use.
_TRANSLATION_CACHE: dict = {}


def _placement_matrix_rows(source: int, position: int, num_vars: int) -> List[int]:
    """Invertible ``M`` with row ``j = e_j`` for ``j < position`` and row
    ``position = source``; remaining rows complete the basis greedily.

    Applying ``x -> M x`` to the function maps spectral index ``source``
    to ``e_position`` while fixing indices ``0, e_0, .., e_{position-1}``.
    The construction is a pure function of its arguments; its one caller,
    :func:`_placement_data`, memoises it process-wide.
    """
    rows: List[int] = [1 << j for j in range(position)]
    rows.append(source)
    for var in range(num_vars):
        if len(rows) == num_vars:
            break
        candidate = 1 << var
        if gf2.rank(rows + [candidate]) == len(rows) + 1:
            rows.append(candidate)
    if len(rows) != num_vars or not gf2.is_invertible(rows):
        raise AssertionError("failed to build placement matrix")
    return rows


def _placement_data(source: int, position: int, num_vars: int
                    ) -> Tuple[Tuple[AffineOp, ...], Tuple[Tuple[int, int], ...],
                               Callable, Tuple[int, ...]]:
    """Memoised action of one placement matrix on a state.

    Substituting ``x -> M x`` applies its elementary ops to the truth
    table (each a delta swap ``(mask, shift)``: the rows under ``mask``
    trade values with the rows ``shift`` above them), maps spectrum index
    ``w`` to ``M^{-T} w`` (``W'(w) = W(M^{-T} w)``, gathered by one
    ``itemgetter``) and the sign-pattern vector ``t`` to ``M^{-1} t``
    (``<t, M^{-T} w> = <M^{-1} t, w>``, one lookup).
    """
    key = (source, position, num_vars)
    data = _PLACEMENT_DATA_CACHE.get(key)
    if data is None:
        rows = _placement_matrix_rows(source, position, num_vars)
        minv = gf2.inverse(rows)
        assert minv is not None
        minv_t = gf2.transpose(minv)
        size = num_bits(num_vars)
        ops = _matrix_to_ops(rows)
        data = (ops, tuple(_delta_swap(op, num_vars) for op in ops),
                itemgetter(*[gf2.mat_vec(minv_t, w) for w in range(size)]),
                tuple(gf2.mat_vec(minv, t) for t in range(size)))
        _PLACEMENT_DATA_CACHE[key] = data
    return data


def _delta_swap(op: AffineOp, num_vars: int) -> Tuple[int, int]:
    """``(mask, shift)`` of the row exchange a swap or translation performs.

    A swap of ``x_a`` and ``x_b`` (``a < b``) exchanges the rows with
    ``x_a = 1, x_b = 0`` and the rows ``2**b - 2**a`` above them; the
    translation ``x_a <- x_a ^ x_b`` exchanges, among the rows with
    ``x_b = 1``, those with ``x_a = 0`` and those with ``x_a = 1``.
    """
    if op.kind == "swap":
        low, high = sorted((op.a, op.b))
        return (projection(low, num_vars) & ~projection(high, num_vars),
                (1 << high) - (1 << low))
    assert op.kind == "translate"
    return (projection(op.b, num_vars) & ~projection(op.a, num_vars),
            1 << op.a)


def _translation(var: int, num_vars: int) -> Callable:
    """Memoised gather of spectrum index ``w ^ e_var`` into index ``w``."""
    key = (var, num_vars)
    gather = _TRANSLATION_CACHE.get(key)
    if gather is None:
        gather = _TRANSLATION_CACHE[key] = itemgetter(
            *[w ^ (1 << var) for w in range(num_bits(num_vars))])
    return gather


#: matrix rows → elementary op sequence (AffineOp is frozen, safe to share).
_MATRIX_OPS_CACHE: dict = {}


def _matrix_to_ops(matrix: List[int]) -> Tuple[AffineOp, ...]:
    """Elementary swap/translate operations whose composition is ``x -> M x``.

    Applying the returned operations to a function, in order, has the same
    effect as substituting ``x -> M x`` into it.  Memoised by the matrix
    rows: the classifier applies the same placement matrices over and over,
    and the Gaussian-elimination decomposition dominates their cost.
    """
    key = tuple(matrix)
    cached = _MATRIX_OPS_CACHE.get(key)
    if cached is not None:
        return cached
    ops: List[AffineOp] = []
    factors = gf2.elementary_decomposition(matrix)
    for kind, a, b in reversed(factors):
        if kind == "swap":
            if a != b:
                ops.append(AffineOp("swap", a, b))
        else:
            ops.append(AffineOp("translate", a, b))
    if len(_MATRIX_OPS_CACHE) >= (1 << 16):
        _MATRIX_OPS_CACHE.clear()
    result = tuple(ops)
    _MATRIX_OPS_CACHE[key] = result
    return result

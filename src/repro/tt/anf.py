"""Algebraic normal form (positive polarity Reed-Muller / Möbius transform)."""

from __future__ import annotations

from typing import List, Tuple

from repro.tt.bits import num_bits, popcount


def _moebius(table: int, num_vars: int) -> int:
    """Butterfly Möbius transform; it is an involution over GF(2)."""
    bits = num_bits(num_vars)
    result = table
    step = 1
    for _ in range(num_vars):
        shifted = 0
        period = step << 1
        # XOR the low half of every block of size 2*step onto its high half.
        low_mask_block = (1 << step) - 1
        low_mask = 0
        for offset in range(0, bits, period):
            low_mask |= low_mask_block << offset
        shifted = (result & low_mask) << step
        result ^= shifted
        step <<= 1
    return result


def to_anf(table: int, num_vars: int) -> int:
    """ANF coefficients packed as an int.

    Bit ``m`` of the result is the coefficient of the monomial
    ``prod_{i : bit i of m set} x_i`` (bit 0 is the constant term).
    """
    return _moebius(table, num_vars)


def from_anf(anf: int, num_vars: int) -> int:
    """Inverse of :func:`to_anf` (the Möbius transform is an involution)."""
    return _moebius(anf, num_vars)


def degree(table: int, num_vars: int) -> int:
    """Algebraic degree of the function (constant functions have degree 0)."""
    return degree_from_anf(to_anf(table, num_vars), num_vars)


def degree_from_anf(anf: int, num_vars: int) -> int:
    """Algebraic degree of the function with ANF coefficients ``anf``."""
    best = 0
    for monomial in range(num_bits(num_vars)):
        if (anf >> monomial) & 1:
            weight = popcount(monomial)
            if weight > best:
                best = weight
    return best


def maximal_monomials_from_anf(anf: int, num_vars: int
                               ) -> List[Tuple[int, ...]]:
    """The monomials of ANF coefficients ``anf`` that no other one contains.

    ``anf`` is packed as :func:`to_anf` returns it.  Each monomial is a
    tuple of variable indices; the constant term is left out (an empty
    list for constant functions).  A superset of a monomial ``m`` is
    numerically at least ``m`` as a variable bitmask, so a descending scan
    meets every containing monomial first.
    """
    maximal: List[int] = []
    for monomial in range(num_bits(num_vars) - 1, 0, -1):
        if anf >> monomial & 1 and not any(
                other & monomial == monomial for other in maximal):
            maximal.append(monomial)
    return [tuple(i for i in range(num_vars) if monomial >> i & 1)
            for monomial in maximal]


def anf_monomials(table: int, num_vars: int) -> List[Tuple[int, ...]]:
    """List of monomials of the ANF as tuples of variable indices.

    The constant-1 monomial is reported as the empty tuple.
    """
    anf = to_anf(table, num_vars)
    monomials: List[Tuple[int, ...]] = []
    for monomial in range(num_bits(num_vars)):
        if (anf >> monomial) & 1:
            monomials.append(tuple(i for i in range(num_vars) if (monomial >> i) & 1))
    return monomials

"""Exact multiplicative-complexity synthesis for functions of degree at most 2.

Over GF(2) every quadratic Boolean function is affine-equivalent to

    x_1 x_2 ^ x_3 x_4 ^ ... ^ x_{2h-1} x_{2h} (^ affine part)

(Dickson's theorem), where ``2h`` is the rank of the symplectic (symmetric,
zero-diagonal) matrix associated with its quadratic part.  Its multiplicative
complexity is exactly ``h``: the construction below produces ``h`` AND gates,
and ``h`` is also a lower bound (the rank of the bilinear form cannot be
produced by fewer products).

This tier is what makes the reproduction land the paper's headline results:
full-adder carries (majority), multiplexers/choose functions, and comparator
slices are all degree-2 and therefore get *provably optimal* XAGs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.tt.anf import to_anf
from repro.tt.bits import num_bits, popcount
from repro.xag.graph import Xag
from repro.xag.simulate import output_truth_tables


def quadratic_form(table: int, num_vars: int) -> Optional[Tuple[List[int], int, int]]:
    """Decompose a degree-≤2 function into (symmetric matrix, linear mask, constant).

    Returns ``None`` when the function has degree greater than two.  The
    matrix is returned as ``num_vars`` row bitmasks with zero diagonal;
    ``A[i] & (1 << j)`` is set when the monomial ``x_i x_j`` appears in the
    algebraic normal form.
    """
    return quadratic_form_from_anf(to_anf(table, num_vars), num_vars)


def quadratic_form_from_anf(anf: int, num_vars: int
                            ) -> Optional[Tuple[List[int], int, int]]:
    """:func:`quadratic_form` of the function with ANF coefficients ``anf``."""
    matrix = [0] * num_vars
    linear = 0
    constant = anf & 1
    for monomial in range(1, num_bits(num_vars)):
        if not (anf >> monomial) & 1:
            continue
        weight = popcount(monomial)
        if weight == 1:
            linear |= monomial
        elif weight == 2:
            lo = (monomial & -monomial).bit_length() - 1
            hi = monomial.bit_length() - 1
            matrix[lo] |= 1 << hi
            matrix[hi] |= 1 << lo
        else:
            return None
    return matrix, linear, constant


def symplectic_rank(matrix: List[int]) -> int:
    """Rank of the symmetric zero-diagonal matrix (always even)."""
    from repro import gf2

    return gf2.rank(matrix)


def product_decomposition(matrix: List[int], linear: int) -> Tuple[List[Tuple[int, int]], int]:
    """Symplectic reduction of a quadratic part into products of linear forms.

    Returns ``(pairs, corrected_linear)`` where each pair ``(p, q)`` is a pair
    of variable masks such that the quadratic part equals
    ``XOR_i (XOR_{k in p_i} x_k) & (XOR_{k in q_i} x_k)`` up to the linear
    correction accumulated into ``corrected_linear``.
    """
    work = list(matrix)
    num_vars = len(work)
    pairs: List[Tuple[int, int]] = []
    corrected = linear
    for _ in range(num_vars):  # at most n/2 iterations are ever needed
        pivot = None
        for i in range(num_vars):
            if work[i]:
                j = (work[i] & -work[i]).bit_length() - 1
                pivot = (i, j)
                break
        if pivot is None:
            break
        i, j = pivot
        row_i = work[i]
        row_j = work[j]
        pairs.append((row_i, row_j))
        # products of linear forms contribute x_k^2 = x_k terms
        corrected ^= row_i & row_j
        # rank-2 update: A ^= a_i a_j^T + a_j a_i^T
        for k in range(num_vars):
            update = 0
            if (row_i >> k) & 1:
                update ^= row_j
            if (row_j >> k) & 1:
                update ^= row_i
            work[k] ^= update
    if any(work):
        raise AssertionError("symplectic reduction did not terminate")
    return pairs, corrected


def synthesize_quadratic(table: int, num_vars: int, verify: bool = True) -> Optional[Xag]:
    """MC-optimal XAG for a degree-≤2 function; ``None`` for higher degrees.

    The returned network has ``num_vars`` primary inputs and a single output,
    and uses exactly ``rank/2`` AND gates.
    """
    form = quadratic_form(table, num_vars)
    if form is None:
        return None
    matrix, linear, constant = form
    pairs, corrected_linear = product_decomposition(matrix, linear)

    xag = Xag()
    xag.name = "quadratic"
    inputs = xag.create_pis(num_vars)

    def linear_signal(mask: int) -> int:
        return xag.create_xor_multi([inputs[k] for k in range(num_vars) if (mask >> k) & 1])

    terms = [xag.create_and(linear_signal(p), linear_signal(q)) for p, q in pairs]
    result = xag.create_xor_multi(terms + [linear_signal(corrected_linear)])
    if constant:
        result = xag.create_not(result)
    xag.create_po(result, "f")

    if verify and output_truth_tables(xag)[0] != table:  # pragma: no cover - defensive
        raise AssertionError("Dickson synthesis produced a wrong function")
    return xag


def quadratic_complexity(table: int, num_vars: int) -> Optional[int]:
    """Exact multiplicative complexity of a degree-≤2 function (else ``None``)."""
    form = quadratic_form(table, num_vars)
    if form is None:
        return None
    return symplectic_rank(form[0]) // 2

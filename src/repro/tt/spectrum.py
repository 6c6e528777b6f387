"""Rademacher-Walsh (Walsh-Hadamard) spectrum of Boolean functions."""

from __future__ import annotations

from typing import List, Tuple

from repro.tt.bits import bit_of, num_bits


def _butterfly(values: List[int]) -> List[int]:
    """In-place fast Walsh-Hadamard transform of a ``2**n``-entry list."""
    size = len(values)
    step = 1
    while step < size:
        for start in range(0, size, step << 1):
            for idx in range(start, start + step):
                a = values[idx]
                b = values[idx + step]
                values[idx] = a + b
                values[idx + step] = a - b
        step <<= 1
    return values


def walsh_spectrum(table: int, num_vars: int) -> List[int]:
    """Walsh-Hadamard spectrum.

    ``W[w] = sum_x (-1)^(f(x) ^ <w, x>)``.  ``W[0]`` is ``2**n - 2 * weight``;
    the coefficients of the five affine operations of the paper act on this
    vector by structured signed permutations (see :mod:`repro.affine`).
    """
    return _butterfly([1 - 2 * bit_of(table, row)
                       for row in range(num_bits(num_vars))])


def table_from_spectrum(spectrum: List[int], num_vars: int) -> int:
    """Invert a Walsh-Hadamard spectrum back to its truth table.

    ``H W = 2**n s`` with ``s(x) = 1 - 2 f(x)`` (the transform is its own
    inverse up to the ``2**n`` factor), so the sign of each entry of
    ``H W`` recovers the function bit exactly: positive means 0, negative
    means 1.  The classifier's spectral state carries its table instead;
    its tests use this as the oracle of that table.
    """
    table = 0
    for row, value in enumerate(_butterfly(list(spectrum))):
        if value < 0:
            table |= 1 << row
    return table


def spectrum_signature(table: int, num_vars: int) -> Tuple[int, ...]:
    """Multiset of absolute spectrum values, sorted.

    The signature is invariant under all five affine operations and is used
    both as a fast pre-filter during classification and as a test oracle: two
    functions with different signatures can never be affine equivalent.
    """
    return tuple(sorted(abs(value) for value in walsh_spectrum(table, num_vars)))

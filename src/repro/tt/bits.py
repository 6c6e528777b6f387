"""Low-level bit helpers for integer-packed truth tables."""

from __future__ import annotations

import random
from typing import Iterable, List


def num_bits(num_vars: int) -> int:
    """Number of rows (bits) in the truth table of a ``num_vars`` function."""
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    return 1 << num_vars


def table_mask(num_vars: int) -> int:
    """All-ones truth table (the constant-1 function) on ``num_vars`` variables."""
    return (1 << num_bits(num_vars)) - 1


if hasattr(int, "bit_count"):  # Python >= 3.10
    #: number of set bits of a non-negative ``value`` — bound to the builtin
    #: method itself, so a call pays no wrapper frame (the cut merge makes
    #: millions of them).
    popcount = int.bit_count
else:
    def popcount(value: int) -> int:
        """Number of set bits of ``value`` (value must be non-negative)."""
        return bin(value).count("1")


def bit_of(table: int, row: int) -> int:
    """Value of the function encoded by ``table`` on input assignment ``row``."""
    return (table >> row) & 1


_PROJECTION_CACHE: dict = {}


def projection(var: int, num_vars: int) -> int:
    """Truth table of the projection function ``f(x) = x_var``.

    Variable 0 yields the pattern ``...0101``; variable ``k`` toggles with
    period ``2**(k + 1)``.
    """
    if not 0 <= var < num_vars:
        raise ValueError(f"variable {var} out of range for {num_vars} variables")
    key = (var, num_vars)
    cached = _PROJECTION_CACHE.get(key)
    if cached is not None:
        return cached
    half = 1 << var
    block = ((1 << half) - 1) << half  # `half` zeros then `half` ones
    table = 0
    period = half << 1
    for offset in range(0, num_bits(num_vars), period):
        table |= block << offset
    _PROJECTION_CACHE[key] = table
    return table


def from_bits(bits: Iterable[int]) -> int:
    """Pack an iterable of 0/1 values (row 0 first) into a truth-table int."""
    table = 0
    for row, value in enumerate(bits):
        if value not in (0, 1):
            raise ValueError("truth-table bits must be 0 or 1")
        if value:
            table |= 1 << row
    return table


def to_bits(table: int, num_vars: int) -> List[int]:
    """Unpack a truth-table int into a list of 0/1 values (row 0 first)."""
    return [(table >> row) & 1 for row in range(num_bits(num_vars))]


def random_table(num_vars: int, rng: random.Random) -> int:
    """Uniformly random truth table on ``num_vars`` variables."""
    return rng.getrandbits(num_bits(num_vars))

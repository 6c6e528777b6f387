"""Truth-table manipulation: cofactors, variable remapping, affine transforms."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.tt.bits import bit_of, num_bits, projection, table_mask


def negate(table: int, num_vars: int) -> int:
    """Complement of the function."""
    return table ^ table_mask(num_vars)


def cofactor(table: int, var: int, value: int, num_vars: int) -> int:
    """Cofactor w.r.t. ``x_var = value`` keeping the variable count.

    The resulting table no longer depends on ``var`` (the corresponding rows
    are duplicated), which keeps all other variable indices stable.
    """
    if value not in (0, 1):
        raise ValueError("cofactor value must be 0 or 1")
    proj = projection(var, num_vars)
    half = 1 << var
    if value:
        selected = table & proj
        return selected | (selected >> half)
    selected = table & ~proj & table_mask(num_vars)
    return selected | (selected << half)


def remove_variable(table: int, var: int, num_vars: int) -> int:
    """Drop ``var`` from a table that does not depend on it.

    Variables above ``var`` are shifted down by one.  The caller is
    responsible for the function actually being independent of ``var`` (the
    0-cofactor is used).
    """
    result = 0
    out_row = 0
    for row in range(num_bits(num_vars)):
        if (row >> var) & 1:
            continue
        if bit_of(table, row):
            result |= 1 << out_row
        out_row += 1
    return result


def insert_variable(table: int, var: int, num_vars: int) -> int:
    """Inverse of :func:`remove_variable`: add a don't-care variable at ``var``.

    ``num_vars`` is the variable count *after* insertion.
    """
    result = 0
    for row in range(num_bits(num_vars)):
        low = row & ((1 << var) - 1)
        high = row >> (var + 1)
        src = (high << var) | low
        if bit_of(table, src):
            result |= 1 << row
    return result


def flip_variable(table: int, var: int, num_vars: int) -> int:
    """Return the table of ``f(..., ~x_var, ...)`` (bit-parallel butterfly)."""
    shift = 1 << var
    upper = projection(var, num_vars)
    lower = upper ^ table_mask(num_vars)
    return ((table & upper) >> shift) | ((table & lower) << shift)


def translate_rows(table: int, delta: int, num_vars: int) -> int:
    """Return the table of ``f(x ^ delta)`` (rows permuted by XOR with ``delta``).

    Implemented as one butterfly per set bit of ``delta`` — the packed
    equivalent of remapping every row index, and the workhorse that lets the
    affine classifier sweep all ``2**n`` input offsets off a single matrix
    application.
    """
    result = table
    remaining = delta
    while remaining:
        low = remaining & -remaining
        result = flip_variable(result, low.bit_length() - 1, num_vars)
        remaining ^= low
    return result


def swap_variables(table: int, var_a: int, var_b: int, num_vars: int) -> int:
    """Return the table of ``f`` with ``var_a`` and ``var_b`` swapped (delta swap)."""
    if var_a == var_b:
        return table
    if var_a > var_b:
        var_a, var_b = var_b, var_a
    # rows with x_a = 1, x_b = 0 trade places with rows x_a = 0, x_b = 1
    movers = projection(var_a, num_vars) & ~projection(var_b, num_vars)
    shift = (1 << var_b) - (1 << var_a)
    moved_up = (table & movers) << shift
    moved_down = (table >> shift) & movers
    keep = table & ~(movers | (movers << shift)) & table_mask(num_vars)
    return keep | moved_up | moved_down


def xor_variable_into(table: int, var: int, other: int, num_vars: int) -> int:
    """Return the table of ``f`` with ``x_var`` replaced by ``x_var ^ x_other``."""
    if var == other:
        raise ValueError("translation requires two distinct variables")
    # rows with x_other = 1 read their value from the row with x_var flipped
    affected = projection(other, num_vars)
    flipped = flip_variable(table, var, num_vars)
    return (table & ~affected) | (flipped & affected)


def xor_with_variable(table: int, var: int, num_vars: int) -> int:
    """Return the table of ``f ^ x_var`` (disjoint translation)."""
    return table ^ projection(var, num_vars)


def apply_input_transform(
    table: int, matrix: Sequence[int], offset: int, num_vars: int
) -> int:
    """Return the table of ``g(x) = f(A x ^ b)``.

    ``matrix`` is a GF(2) matrix given as ``num_vars`` row bitmasks: row ``i``
    describes which input variables are XOR-ed together to form the value fed
    to variable ``i`` of ``f``.  ``offset`` is the constant vector ``b``.

    Bit-parallel: the table of each transformed input ``<row_i, x> ^ b_i`` is
    assembled by XOR-ing projection words, and ``f`` is evaluated over those
    packed words by Shannon recursion — no per-row Python loop.  This is the
    innermost operation of affine classification, executed tens of thousands
    of times per classified function.
    """
    mask = table_mask(num_vars)
    table &= mask
    if table == 0 or table == mask:
        return table
    inputs = []
    for i, row in enumerate(matrix):
        word = mask if (offset >> i) & 1 else 0
        remaining = row
        while remaining:
            low = remaining & -remaining
            word ^= projection(low.bit_length() - 1, num_vars)
            remaining ^= low
        inputs.append(word)
    return eval_packed(table, num_vars, inputs, mask)


def eval_packed(table: int, num_vars: int, inputs: Sequence[int], out_mask: int) -> int:
    """Evaluate ``f`` (a ``num_vars`` truth table) over packed input words.

    ``inputs[i]`` is an arbitrarily wide bit-vector giving the value of
    variable ``i`` in every simulated pattern; the result packs ``f`` applied
    patternwise.  Shannon recursion on the top variable with constant /
    don't-care collapsing keeps the work proportional to the decision-tree
    size of ``f`` rather than to ``2**num_vars`` in the common case.
    """
    if table == 0:
        return 0
    if num_vars == 0:
        return out_mask
    width = 1 << (num_vars - 1)
    sub_mask = (1 << width) - 1
    low_half = table & sub_mask
    high_half = (table >> width) & sub_mask
    if low_half == high_half:
        return eval_packed(low_half, num_vars - 1, inputs, out_mask)
    word = inputs[num_vars - 1]
    zero_branch = eval_packed(low_half, num_vars - 1, inputs, out_mask)
    one_branch = eval_packed(high_half, num_vars - 1, inputs, out_mask)
    return (zero_branch & (word ^ out_mask)) | (one_branch & word)


def apply_output_affine(table: int, linear: int, constant: int, num_vars: int) -> int:
    """Return the table of ``g(x) = f(x) ^ <linear, x> ^ constant``."""
    result = table
    for var in range(num_vars):
        if (linear >> var) & 1:
            result ^= projection(var, num_vars)
    if constant:
        result = negate(result, num_vars)
    return result


def expand_table(table: int, from_vars: int, to_vars: int) -> int:
    """Re-interpret a ``from_vars`` table as a ``to_vars`` table.

    The added variables (highest indices) are don't cares: the table is simply
    replicated.
    """
    if to_vars < from_vars:
        raise ValueError("cannot expand to fewer variables")
    result = table
    width = num_bits(from_vars)
    for _ in range(to_vars - from_vars):
        result |= result << width
        width <<= 1
    return result


def shrink_to_support(table: int, num_vars: int) -> Tuple[int, List[int]]:
    """Project the function onto its true support.

    Returns ``(reduced_table, support)`` where ``support`` lists the original
    variable indices, in increasing order, that the function depends on.  The
    reduced table is expressed over ``len(support)`` variables.
    """
    from repro.tt.properties import support as _support

    vars_in_support = _support(table, num_vars)
    reduced = table
    current_vars = num_vars
    # Remove don't-care variables from the highest index downwards so lower
    # indices stay valid while iterating.
    for var in range(num_vars - 1, -1, -1):
        if var in vars_in_support:
            continue
        reduced = remove_variable(cofactor(reduced, var, 0, current_vars), var, current_vars)
        current_vars -= 1
    return reduced, vars_in_support

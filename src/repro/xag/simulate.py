"""Simulation of XAGs: single patterns, word-parallel, full truth tables.

Every function here recomputes the whole network per call.
:class:`repro.xag.bitsim.BitSimulator` keeps the result of one
:func:`node_values` pass until the network changes, which serves the
per-round equivalence checks; :func:`simulate_words` stays the cache-free
reference that :mod:`repro.testing.oracle` checks networks with.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.tt.bits import projection, table_mask
from repro.xag.graph import Xag, lit_complemented, lit_node


def simulate_words(xag: Xag, pi_words: Sequence[int], mask: int) -> List[int]:
    """Word-parallel simulation.

    ``pi_words`` assigns one integer word per primary input; ``mask`` is the
    all-ones word defining the simulation width (complemented edges are
    realised by XOR-ing with ``mask``).  Returns one word per primary output.
    """
    if len(pi_words) != xag.num_pis:
        raise ValueError("one simulation word per primary input is required")
    values = node_values(xag, pi_words, mask)
    outputs = []
    for lit in xag.po_literals():
        word = values[lit_node(lit)]
        if lit_complemented(lit):
            word ^= mask
        outputs.append(word)
    return outputs


def node_values(xag: Xag, pi_words: Sequence[int], mask: int) -> List[int]:
    """Word-parallel values for every node (indexed by node id)."""
    values = [0] * xag.num_nodes
    for position, node in enumerate(xag.pis()):
        values[node] = pi_words[position] & mask
    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        a = values[lit_node(f0)]
        if lit_complemented(f0):
            a ^= mask
        b = values[lit_node(f1)]
        if lit_complemented(f1):
            b ^= mask
        values[node] = (a & b) if xag.is_and(node) else (a ^ b)
    return values


def simulate_pattern(xag: Xag, pattern: Sequence[int]) -> List[int]:
    """Simulate a single 0/1 input pattern; returns one 0/1 value per output."""
    words = [bit & 1 for bit in pattern]
    return simulate_words(xag, words, 1)


def simulate_assignment(xag: Xag, assignment: Dict[str, int]) -> Dict[str, int]:
    """Simulate a named assignment; returns a name → value dictionary."""
    pattern = [assignment[xag.pi_name(i)] for i in range(xag.num_pis)]
    outputs = simulate_pattern(xag, pattern)
    return {xag.po_name(i): outputs[i] for i in range(xag.num_pos)}


def output_truth_tables(xag: Xag, max_vars: int = 16) -> List[int]:
    """Exhaustive truth tables of all outputs (requires ``num_pis <= max_vars``)."""
    if xag.num_pis > max_vars:
        raise ValueError(
            f"exhaustive simulation limited to {max_vars} inputs, network has {xag.num_pis}"
        )
    num_vars = xag.num_pis
    words = [projection(var, num_vars) for var in range(num_vars)]
    return simulate_words(xag, words, table_mask(num_vars))


def node_truth_tables(xag: Xag, max_vars: int = 16) -> List[int]:
    """Exhaustive truth tables for every node (indexed by node id)."""
    if xag.num_pis > max_vars:
        raise ValueError(
            f"exhaustive simulation limited to {max_vars} inputs, network has {xag.num_pis}"
        )
    num_vars = xag.num_pis
    words = [projection(var, num_vars) for var in range(num_vars)]
    return node_values(xag, words, table_mask(num_vars))


def simulate_integers(xag: Xag, input_values: Sequence[int], input_widths: Sequence[int],
                      output_widths: Sequence[int]) -> List[int]:
    """Simulate a bit-vector interface.

    The primary inputs are grouped, little-endian, into words of the given
    ``input_widths``; the outputs are grouped likewise according to
    ``output_widths``.  This is the convenient entry point for the arithmetic
    and cryptographic generators (e.g. feed two 32-bit integers to an adder).
    """
    if sum(input_widths) != xag.num_pis:
        raise ValueError("input widths do not cover the primary inputs")
    if sum(output_widths) != xag.num_pos:
        raise ValueError("output widths do not cover the primary outputs")
    pattern: List[int] = []
    for value, width in zip(input_values, input_widths):
        pattern.extend((value >> bit) & 1 for bit in range(width))
    bits = simulate_pattern(xag, pattern)
    outputs: List[int] = []
    offset = 0
    for width in output_widths:
        value = 0
        for bit in range(width):
            value |= bits[offset + bit] << bit
        outputs.append(value)
        offset += width
    return outputs

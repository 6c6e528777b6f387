"""Depth metrics: logic depth and multiplicative (AND) depth."""

from __future__ import annotations

from typing import List

from repro.xag.graph import NodeKind, Xag, lit_node


def node_levels(xag: Xag, and_only: bool = False) -> List[int]:
    """Per-node level, in one pass over the topological order.

    The constant and the primary inputs sit at level 0, a gate at its
    larger fan-in level plus its weight.  Every gate weighs 1; with
    ``and_only`` set, XOR gates weigh 0 (they are transparent) and the level
    counts only AND gates on the longest path — the *multiplicative depth*,
    the metric FHE applications care about alongside the AND count.  Dead
    nodes read 0.
    """
    levels = [0] * xag.num_nodes
    kinds = xag._kind
    fanin0 = xag._fanin0
    fanin1 = xag._fanin1
    and_kind = NodeKind.AND
    xor_kind = NodeKind.XOR
    xor_weight = 0 if and_only else 1
    for node in xag.topological_order():
        kind = kinds[node]
        if kind == and_kind:
            weight = 1
        elif kind == xor_kind:
            weight = xor_weight
        else:
            continue
        level = levels[fanin0[node] >> 1]
        other = levels[fanin1[node] >> 1]
        if other > level:
            level = other
        levels[node] = level + weight
    return levels


def depth(xag: Xag) -> int:
    """Longest PI→PO path counting every gate."""
    if xag.num_pos == 0:
        return 0
    levels = node_levels(xag, and_only=False)
    return max(levels[lit_node(lit)] for lit in xag.po_literals())


def multiplicative_depth(xag: Xag) -> int:
    """Longest PI→PO path counting only AND gates."""
    if xag.num_pos == 0:
        return 0
    levels = node_levels(xag, and_only=True)
    return max(levels[lit_node(lit)] for lit in xag.po_literals())

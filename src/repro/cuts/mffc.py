"""Maximum fanout-free cone (MFFC) computation.

The MFFC of a node is the set of nodes that would become dead if the node were
removed — exactly the logic that a DAG-aware rewriting step is allowed to
count as "saved" when it replaces the node's cut (Mishchenko et al., DAC'06).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.xag.graph import NodeKind, Xag, lit_node


def mffc(xag: Xag, root: int, fanout_counts: Optional[Sequence[int]] = None) -> Set[int]:
    """Set of gate nodes in the maximum fanout-free cone of ``root``.

    By default the walk reads the network's *maintained* reference counts
    (kept up to date by the :class:`~repro.xag.graph.Xag` core across both
    append-only construction and in-place substitution) and tracks its
    decrements in a local dictionary, so the cost is proportional to the
    cone, not the network.  ``fanout_counts`` may pass an explicit count
    array instead (it is copied, as the walk decrements it).
    """
    if not xag.is_gate(root) or xag.is_dead(root):
        return set()
    if fanout_counts is not None:
        return _mffc_counted(xag, root, list(fanout_counts))
    refs = xag._refs
    kinds = xag._kind
    fanin0 = xag._fanin0
    fanin1 = xag._fanin1
    and_kind = NodeKind.AND
    xor_kind = NodeKind.XOR
    taken: Dict[int, int] = {}
    cone: Set[int] = {root}
    stack: List[int] = [root]
    while stack:
        node = stack.pop()
        for child in (fanin0[node] >> 1, fanin1[node] >> 1):
            kind = kinds[child]
            if kind != and_kind and kind != xor_kind:
                continue
            remaining = taken.get(child, 0) + 1
            taken[child] = remaining
            if refs[child] == remaining:
                cone.add(child)
                stack.append(child)
    return cone


def _mffc_counted(xag: Xag, root: int, counts: List[int]) -> Set[int]:
    """MFFC walk against a caller-provided (copied) fan-out count array."""
    cone: Set[int] = set()
    stack: List[int] = [root]
    while stack:
        node = stack.pop()
        if node in cone or not xag.is_gate(node):
            continue
        cone.add(node)
        for fanin in xag.fanins(node):
            child = lit_node(fanin)
            if not xag.is_gate(child):
                continue
            counts[child] -= 1
            if counts[child] == 0:
                stack.append(child)
    return cone


def mffc_saving(xag: Xag, root: int, leaves: Sequence[int],
                cone: Set[int]) -> Tuple[int, int]:
    """(ANDs, gates) of the MFFC ``cone`` of ``root`` inside the cut ``leaves``.

    This is what replacing the cut ``(root, leaves)`` saves: the gates of
    the cut cone that die with the root.  The walk descends from ``root``
    through ``cone`` only and stops at the leaves, so it never builds the
    cut cone.  It still counts exactly the cut cone ∩ MFFC: every fan-out
    of an MFFC node other than the root is in the MFFC too, so every path
    from the root to an MFFC node stays inside the MFFC.  An MFFC node the
    root reaches only through a leaf is outside the cut cone and is not
    counted.
    """
    if root not in cone:
        return 0, 0
    kinds = xag._kind
    fanin0 = xag._fanin0
    fanin1 = xag._fanin1
    and_kind = NodeKind.AND
    seen = set(leaves)
    seen.add(root)
    stack = [root]
    ands = 0
    gates = 0
    while stack:
        node = stack.pop()
        gates += 1
        if kinds[node] == and_kind:
            ands += 1
        for child in (fanin0[node] >> 1, fanin1[node] >> 1):
            if child in cone and child not in seen:
                seen.add(child)
                stack.append(child)
    return ands, gates


def mffc_and_count(xag: Xag, root: int, fanout_counts: Optional[Sequence[int]] = None) -> int:
    """Number of AND gates inside the MFFC of ``root``."""
    return sum(1 for node in mffc(xag, root, fanout_counts) if xag.is_and(node))

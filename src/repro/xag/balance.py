"""Associativity-based AND/XOR tree rebalancing for depth reduction.

MC cut rewriting minimises the AND *count*; the multiplicative *depth* — the
second axis every MPC/FHE cost model prices, because homomorphic noise grows
exponentially with the number of AND levels — is left to fall where it may.
Chains are the worst case: an AND chain over ``k`` operands built left to
right has AND depth ``k - 1`` where a balanced tree needs ``ceil(log2 k)``,
with exactly the same AND count.

This module rebuilds such trees in place:

* **AND trees** — maximal single-fanout trees of AND gates reached through
  non-complemented edges (OR chains are AND chains with complemented leaf
  edges, so they are covered too).  The operands are re-merged Huffman-style
  against their AND-levels (always combine the two shallowest operands;
  ``level(AND(a, b)) = max(level(a), level(b)) + 1``), which minimises the
  root's AND-level over all associative re-bracketings.  A tree is only
  rebuilt when the predicted root level strictly improves.
* **XOR trees** — XOR gates are transparent to the multiplicative depth
  (their root AND-level is the maximum over the leaves, whatever the shape),
  so XOR trees are rebalanced against *total* gate levels instead: same
  Huffman merge, weight 1 per XOR, reducing the ordinary logic depth without
  touching the AND count or the multiplicative depth.  Fan-in complements
  inside an XOR tree fold into one output parity.

One call keeps one AND-level list and one gate-level list
(:class:`_BalanceLevels`): both are computed once by
:func:`~repro.xag.depth.node_levels` and, after every edit, updated by
forward propagation from the rewired, revived and appended nodes, stopping
where a level does not change.  A tree's operand levels only change through
trees rebuilt before it, so no tree needs a whole-network recompute.

Every rebuild replaces the tree root via
:meth:`repro.xag.graph.Xag.substitute_node`, so subscribed observers (cut
sets, cone functions, level trackers, packed simulation words) see every
edit, and the displaced tree is garbage-collected by reference count.  A rebuild uses
``k - 1`` fresh gate constructions for ``k`` operands — never more gates than
the tree it replaces (structural hashing can only fold further), so neither
the AND count nor the XOR count can increase.  The pass is verified by
packed simulation: the primary-output words before and after must match.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.xag.bitsim import BitSimulator, SimulationCache
from repro.xag.depth import node_levels
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import NodeKind, SubstitutionResult, Xag, literal


@dataclass
class BalanceStats:
    """What one :func:`balance_in_place` call did to the network."""

    ands_before: int = 0
    ands_after: int = 0
    xors_before: int = 0
    xors_after: int = 0
    #: multiplicative depth (critical AND-level) before/after.
    depth_before: int = 0
    depth_after: int = 0
    #: tree roots examined / actually rebuilt, across all passes.
    trees_examined: int = 0
    trees_rebalanced: int = 0
    #: substitutions performed (including cascaded collapses).
    substitutions: int = 0
    passes: int = 0
    verified: Optional[bool] = None

    @property
    def depth_improvement(self) -> float:
        """Fractional multiplicative-depth reduction."""
        if self.depth_before == 0:
            return 0.0
        return 1.0 - self.depth_after / self.depth_before


class _BalanceLevels:
    """AND-levels and gate levels of one network, kept for one balance call.

    Both lists start as :func:`~repro.xag.depth.node_levels`.  As an
    observer of the network it hears of every substitution and of every
    dead node a gate constructor revives; it then computes the levels of
    the nodes appended since (in index order: an appended node only
    references older ones) and propagates from the rewired and revived
    nodes through their fan-outs, stopping where neither level changes.
    Only live-node levels are meaningful.  The call never rolls the network
    back, so there is no rollback hook.
    """

    def __init__(self, xag: Xag) -> None:
        self.xag = xag
        self.and_levels = node_levels(xag, and_only=True)
        self.gate_levels = node_levels(xag, and_only=False)
        xag.subscribe(self)

    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        self.grow()
        self._propagate(result.dirty.union(result.revived))

    def grow(self) -> None:
        """Levels of the gates appended since the last edit or call (a
        balance call appends gates only)."""
        xag = self.xag
        and_levels = self.and_levels
        gate_levels = self.gate_levels
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        for node in range(len(and_levels), xag.num_nodes):
            a = fanin0[node] >> 1
            b = fanin1[node] >> 1
            and_levels.append(max(and_levels[a], and_levels[b])
                              + (kinds[node] == NodeKind.AND))
            gate_levels.append(max(gate_levels[a], gate_levels[b]) + 1)

    def _propagate(self, seeds: Iterable[int]) -> None:
        """Recompute ``seeds`` and, while a level changes, their fan-outs."""
        xag = self.xag
        and_levels = self.and_levels
        gate_levels = self.gate_levels
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        fanouts = xag._fanouts
        dead = xag._dead
        queue = deque(seeds)
        queued = set(queue)
        while queue:
            node = queue.popleft()
            queued.discard(node)
            if dead[node]:
                continue
            a = fanin0[node] >> 1
            b = fanin1[node] >> 1
            and_level = max(and_levels[a], and_levels[b]) \
                + (kinds[node] == NodeKind.AND)
            gate_level = max(gate_levels[a], gate_levels[b]) + 1
            if and_level == and_levels[node] and \
                    gate_level == gate_levels[node]:
                continue
            and_levels[node] = and_level
            gate_levels[node] = gate_level
            for fanout in fanouts[node]:
                if fanout not in queued:
                    queued.add(fanout)
                    queue.append(fanout)

    def critical_level(self) -> int:
        """Largest AND-level over the primary-output drivers."""
        levels = self.and_levels
        return max((levels[lit >> 1] for lit in self.xag.po_literals()),
                   default=0)


def _collect_tree(xag: Xag, root: int) -> Tuple[List[int], int]:
    """Operand literals of the maximal same-kind tree rooted at ``root``.

    Interior nodes are same-kind gates whose only reference is their tree
    parent; for AND trees the connecting edge must be non-complemented (a
    complemented AND edge is a NAND boundary), for XOR trees edge complements
    fold into the returned output parity.
    """
    kind = xag._kind[root]
    is_xor = kind == NodeKind.XOR
    leaves: List[int] = []
    parity = 0
    stack = [root]
    while stack:
        node = stack.pop()
        for fanin in xag.fanins(node):
            child = fanin >> 1
            if (xag._kind[child] == kind and xag.fanout_size(child) == 1
                    and (is_xor or not (fanin & 1))):
                parity ^= fanin & 1
                stack.append(child)
            else:
                leaves.append(fanin)
    return leaves, parity


def _is_tree_root(xag: Xag, node: int) -> bool:
    """True when ``node`` is not absorbed into a same-kind parent tree."""
    if xag.fanout_size(node) != 1:
        return True
    fanouts = xag._fanouts[node]
    if not fanouts:
        return True  # the single reference is a primary output
    parent = fanouts[0]
    kind = xag._kind[node]
    if xag._kind[parent] != kind:
        return True
    if kind == NodeKind.XOR:
        return False
    # AND interior edges must be non-complemented
    f0, f1 = xag.fanins(parent)
    lit = literal(node)
    return not (f0 == lit or f1 == lit)


def _merged_level(levels: List[int], weight: int) -> int:
    """Root level of the Huffman merge without building anything."""
    heap = list(levels)
    heapq.heapify(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        heapq.heappush(heap, max(a, b) + weight)
    return heap[0]


def _build_balanced(xag: Xag, operands: List[int], levels: List[int],
                    weight: int, op) -> int:
    """Huffman-merge ``operands`` with ``op``, shallowest first.

    ``levels`` are the operands' current levels; merged results use the
    predicted ``max + weight`` level (structural hashing can only do
    better).  Ties break on insertion order, keeping the construction
    deterministic.
    """
    heap = [(levels[i], i, lit) for i, lit in enumerate(operands)]
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        level_a, _, a = heapq.heappop(heap)
        level_b, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (max(level_a, level_b) + weight, counter, op(a, b)))
        counter += 1
    return heap[0][2]


def balance_in_place(xag: Xag, verify: bool = True,
                     sim_cache: Optional[SimulationCache] = None,
                     max_passes: int = 16) -> BalanceStats:
    """Rebalance every AND/XOR tree of ``xag``, mutating it.

    Runs passes until a pass rebuilds nothing (levels only ever decrease, so
    this terminates; ``max_passes`` is a safety cap).  With ``verify`` the
    primary-output words of a packed simulation are compared before and
    after; a mismatch raises :class:`AssertionError`.  A flow passes its
    ``sim_cache`` so the pass and its rewriting rounds share one simulator.
    """
    stats = BalanceStats(ands_before=xag.num_ands, xors_before=xag.num_xors)
    levels = _BalanceLevels(xag)
    stats.depth_before = levels.critical_level()

    sim: Optional[BitSimulator] = None
    po_before: Optional[List[int]] = None
    if verify:
        words, mask, _ = equivalence_stimulus(xag.num_pis)
        if sim_cache is not None:
            sim = sim_cache.simulator(xag, words, mask)
        else:
            sim = BitSimulator(xag, words, mask)
        po_before = sim.po_snapshot()

    for _ in range(max_passes):
        stats.passes += 1
        rebuilt = 0
        # a build that substituted nothing may have appended tree roots
        levels.grow()
        roots = [node for node in xag.topological_order()
                 if xag.is_gate(node) and _is_tree_root(xag, node)]
        for root in roots:
            if xag.is_dead(root):
                continue  # folded away by an earlier rebuild's cascade
            operands, parity = _collect_tree(xag, root)
            stats.trees_examined += 1
            if len(operands) < 3:
                continue
            is_and = xag.is_and(root)
            tree_levels = levels.and_levels if is_and else levels.gate_levels
            operand_levels = [tree_levels[lit >> 1] for lit in operands]
            if _merged_level(operand_levels, 1) >= tree_levels[root]:
                continue
            op = xag.create_and if is_and else xag.create_xor
            new_lit = _build_balanced(xag, operands, operand_levels, 1, op)
            new_lit ^= parity
            if (new_lit >> 1) == root:
                continue
            result = xag.substitute_node(root, new_lit)
            stats.trees_rebalanced += 1
            rebuilt += 1
            stats.substitutions += len(result.pairs)
        if not rebuilt:
            break

    xag.unsubscribe(levels)
    stats.ands_after = xag.num_ands
    stats.xors_after = xag.num_xors
    stats.depth_after = levels.critical_level()
    if verify:
        assert sim is not None and po_before is not None
        stats.verified = sim.po_matches(po_before)
        if not stats.verified:
            raise AssertionError("tree rebalancing changed the network function")
    return stats


def balance(xag: Xag, verify: bool = True) -> Tuple[Xag, BalanceStats]:
    """Rebalanced copy of ``xag`` (the input is never modified).

    Returns the swept result together with the :class:`BalanceStats`; when
    nothing was rebuilt the returned network is still an independent copy of
    the input's live cone.
    """
    from repro.xag.cleanup import sweep, sweep_owned

    working = sweep_owned(xag)
    stats = balance_in_place(working, verify=verify)
    return sweep(working), stats

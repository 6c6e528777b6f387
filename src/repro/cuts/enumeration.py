"""k-feasible cut enumeration with a per-node cut limit (priority cuts).

The enumeration follows the classical bottom-up merge: the cut set of a gate
is obtained by pairwise union of the cut sets of its fan-ins, keeping only
cuts with at most ``cut_size`` leaves, removing dominated cuts, and keeping at
most ``cut_limit`` cuts per node (paper §4.1 uses ``cut_size = 6`` and
``cut_limit = 12``).  The trivial cut of each node is always available to the
merge step but is not reported to the rewriter.

Cut functions are not computed during enumeration; they are evaluated on
demand by simulating the cut cone with projection truth tables, which is much
cheaper in pure Python than maintaining tables through every merge.  A
shared :class:`repro.cuts.cache.CutFunctionCache` memoises the simulated
tables per ``(root, leaves)`` across the rounds of a flow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cuts.cut import Cut
from repro.tt.bits import popcount

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.cuts.cache import CutFunctionCache
from repro.xag.graph import SubstitutionResult, Xag, lit_node


def _merge_node_cuts(xag: Xag, node: int,
                     merge_sets: Dict[int, List[Tuple[int, ...]]],
                     cut_size: int, cut_limit: int
                     ) -> List[Tuple[int, ...]]:
    """Kept leaf tuples of one gate from its fan-ins' merge sets.

    Leaf sets are remapped into a *local* bit space (one bit per distinct
    leaf seen across both fan-ins, at most ``2 * cut_limit * cut_size``
    bits), so the pairwise union is one machine-word ``|``, the size check
    one ``bit_count`` and dominance filtering a subset test — no big-int
    churn over the full node-index space.  This is the single definition
    of the per-node cut computation, shared by the one-shot enumeration
    and the incremental :class:`CutSetCache` so the two can never drift
    apart.
    """
    f0, f1 = xag.fanins(node)
    cuts0 = merge_sets[lit_node(f0)]
    cuts1 = merge_sets[lit_node(f1)]
    distinct = set()
    for leaves in cuts0:
        distinct.update(leaves)
    for leaves in cuts1:
        distinct.update(leaves)
    local_leaves = sorted(distinct)
    index = {leaf: bit for bit, leaf in enumerate(local_leaves)}
    masks0 = [_leaves_to_mask(leaves, index) for leaves in cuts0]
    masks1 = [_leaves_to_mask(leaves, index) for leaves in cuts1]

    # note: a vectorised variant of this merge (uint64 outer union +
    # broadcast subset tests) measures *slower* than the scalar loop at the
    # typical ~13x13 batch size, so the merge stays pure Python on every
    # backend.
    masks: List[int] = []
    seen = set()
    for mask0 in masks0:
        for mask1 in masks1:
            union = mask0 | mask1
            if union in seen or popcount(union) > cut_size:
                continue
            seen.add(union)
            masks.append(union)
    kept = _filter_dominated_masks(masks)
    candidates = [_mask_to_leaves(mask, local_leaves) for mask in kept]
    candidates.sort(key=lambda leaves: (len(leaves), leaves))
    return candidates[:cut_limit]


def _leaves_to_mask(leaves: Tuple[int, ...], index: Dict[int, int]) -> int:
    """Local bitmask of a leaf tuple."""
    mask = 0
    for leaf in leaves:
        mask |= 1 << index[leaf]
    return mask


def _mask_to_leaves(mask: int, local_leaves: List[int]) -> Tuple[int, ...]:
    """Node-index tuple of a local leaf bitmask (local bits are assigned in
    ascending node order, so extraction is already sorted)."""
    leaves = []
    while mask:
        low = mask & -mask
        leaves.append(local_leaves[low.bit_length() - 1])
        mask ^= low
    return tuple(leaves)


def _filter_dominated_masks(masks: List[int]) -> List[int]:
    """Drop masks that strictly contain another mask (they are dominated).

    The survivor set is order-independent, so the scan may sort by
    popcount and test each mask only against already-kept (necessarily
    smaller) ones: domination is transitive, so a mask dominated by a
    *dropped* mask is also dominated by that mask's kept dominator.
    """
    if len(masks) <= 1:
        return list(masks)
    ordered = sorted(masks, key=popcount)
    keep: List[int] = []
    for mask in ordered:
        for other in keep:
            # other ⊆ mask is (other & mask) == other (strict: dedup
            # upstream guarantees other != mask)
            if other & mask == other:
                break
        else:
            keep.append(mask)
    return keep


def enumerate_cuts(xag: Xag, cut_size: int = 6, cut_limit: int = 12) -> Dict[int, List[Cut]]:
    """Cut sets for every gate node.

    Returns a dictionary mapping each node index to its list of non-trivial
    cuts (primary inputs and the constant node map to empty lists).  Cuts are
    ordered by increasing leaf count.
    """
    if cut_size < 2:
        raise ValueError("cut_size must be at least 2")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")

    # sorted leaf tuples usable for merging, per node.  Iteration follows
    # the live topological order: after an in-place substitution the
    # creation order is no longer topological, and dead nodes are skipped.
    merge_sets: Dict[int, List[Tuple[int, ...]]] = {}
    result: Dict[int, List[Cut]] = {}

    for node in xag.topological_order():
        if xag.is_constant(node):
            merge_sets[node] = [()]
            result[node] = []
            continue
        if xag.is_pi(node):
            merge_sets[node] = [(node,)]
            result[node] = []
            continue

        kept = _merge_node_cuts(xag, node, merge_sets, cut_size, cut_limit)
        result[node] = [Cut(node, leaves) for leaves in kept
                        if leaves != (node,)]
        # the trivial cut participates in the merges of the fan-outs
        merge_sets[node] = kept + [(node,)]
    return result


class CutSetCache:
    """Incrementally maintained cut sets for one network.

    One-shot :func:`enumerate_cuts` recomputes the bottom-up merge for every
    node on every call — O(network) per rewriting round even when a round
    only touched a few cones.  This cache keeps the per-node merge sets
    alive across rounds and subscribes to the network's mutation events
    (:meth:`repro.xag.graph.Xag.subscribe`): an in-place substitution drops
    only the entries in the **transitive fanout** of the rewired nodes —
    exactly the nodes whose transitive fan-in (and therefore cut sets)
    changed.  The next :meth:`cuts` call recomputes just the missing
    entries in topological order.
    """

    def __init__(self, cut_size: int = 6, cut_limit: int = 12) -> None:
        if cut_size < 2:
            raise ValueError("cut_size must be at least 2")
        if cut_limit < 1:
            raise ValueError("cut_limit must be at least 1")
        self.cut_size = cut_size
        self.cut_limit = cut_limit
        self._merge: Dict[int, List[Tuple[int, ...]]] = {}
        self._cuts: Dict[int, List[Cut]] = {}
        self._bound_xag: Optional[Xag] = None
        self._bound_epoch = -1
        self._bound_mutation_epoch = -1
        #: nodes recomputed across all calls (the benchmark counter).
        self.nodes_recomputed = 0
        self.invalidations = 0

    def bind(self, xag: Xag) -> None:
        """Attach the cache to ``xag``, subscribing to its mutation events."""
        if (xag is self._bound_xag
                and xag._rollback_epoch == self._bound_epoch
                and xag._mutation_epoch == self._bound_mutation_epoch):
            return
        self._merge.clear()
        self._cuts.clear()
        if self._bound_xag is not None and self._bound_xag is not xag:
            self._bound_xag.unsubscribe(self)
        self._bound_xag = xag
        self._bound_epoch = xag._rollback_epoch
        self._bound_mutation_epoch = xag._mutation_epoch
        xag.subscribe(self)

    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """Drop cut sets of every node whose transitive fan-in changed."""
        if xag is not self._bound_xag:
            return
        for node in result.affected(xag):
            if self._merge.pop(node, None) is not None:
                self.invalidations += 1
            self._cuts.pop(node, None)
        self._bound_mutation_epoch = xag._mutation_epoch

    def on_rollback(self, xag: Xag) -> None:
        """Rollback recycles node indices: drop everything."""
        if xag is not self._bound_xag:
            return
        self._merge.clear()
        self._cuts.clear()
        self._bound_epoch = xag._rollback_epoch

    def cuts(self, xag: Xag) -> Dict[int, List[Cut]]:
        """Cut sets for every live gate (recomputing only missing entries)."""
        self.bind(xag)
        merge_sets = self._merge
        result = self._cuts
        for node in xag.topological_order():
            if node in merge_sets:
                continue
            if xag.is_constant(node):
                merge_sets[node] = [()]
                result[node] = []
                continue
            if xag.is_pi(node):
                merge_sets[node] = [(node,)]
                result[node] = []
                continue
            kept = _merge_node_cuts(xag, node, merge_sets, self.cut_size,
                                    self.cut_limit)
            result[node] = [Cut(node, leaves) for leaves in kept
                            if leaves != (node,)]
            # the trivial cut participates in the merges of the fan-outs
            merge_sets[node] = kept + [(node,)]
            self.nodes_recomputed += 1
        return result


def cut_cone(xag: Xag, root: int, leaves: Sequence[int]) -> List[int]:
    """Nodes strictly inside the cut (between leaves and root, root included).

    The returned list is in topological order.
    """
    leaf_set = set(leaves)
    visited = set(leaf_set)
    order: List[int] = []
    kinds = xag._kind
    fanin0 = xag._fanin0
    fanin1 = xag._fanin1
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        kind = kinds[node]
        if kind != 2 and kind != 3:  # neither AND nor XOR: must be a boundary
            if node in leaf_set or kind == 0:
                continue
            raise ValueError(f"cut of node {root} does not cover node {node}")
        stack.append((node, True))
        child0 = fanin0[node] >> 1
        child1 = fanin1[node] >> 1
        if child0 not in visited:
            stack.append((child0, False))
        if child1 not in visited:
            stack.append((child1, False))
    return order


def cut_function(xag: Xag, cut: Cut, cache: Optional["CutFunctionCache"] = None) -> int:
    """Truth table of the cut root in terms of its leaves (leaf ``i`` = variable ``i``).

    ``cache`` may pass a shared :class:`repro.cuts.cache.CutFunctionCache` so
    that repeated queries for the same cut (e.g. by the rewriter and by the
    ablation benchmarks) simulate the cone only once per network.
    """
    num_vars = len(cut.leaves)
    if num_vars > 16:
        raise ValueError("cut function computation limited to 16 leaves")
    if cache is not None:
        return cache.cone_function(xag, cut.root, cut.leaves)
    from repro.cuts.cache import _simulate_cone

    return _simulate_cone(xag, cut.root, cut.leaves,
                          cut_cone(xag, cut.root, cut.leaves))


def cut_and_count(xag: Xag, cut: Cut) -> int:
    """Number of AND gates inside the cut cone (a cheap upper bound on the gain)."""
    return sum(1 for node in cut_cone(xag, cut.root, cut.leaves) if xag.is_and(node))

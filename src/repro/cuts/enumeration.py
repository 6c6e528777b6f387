"""k-feasible cut enumeration with a per-node cut limit (priority cuts).

The enumeration follows the classical bottom-up merge: the cut set of a gate
is obtained by pairwise union of the cut sets of its fan-ins, keeping only
cuts with at most ``cut_size`` leaves, removing dominated cuts, and keeping at
most ``cut_limit`` cuts per node (paper §4.1 uses ``cut_size = 6`` and
``cut_limit = 12``).  The trivial cut of each node is always available to the
merge step but is not reported to the rewriter.

A cut set is a list of *merge entries* ``(leaves, table, has_and)``: the
sorted leaves, the root's truth table over them (leaf ``i`` = variable
``i``) and whether an AND gate lies inside the cut cone.  Every kept cut
gets its table and bit in the merge, from the fan-in cuts whose union
formed it: each producer's table is re-expressed over the union's leaves,
complemented by the fan-in literal and combined with the gate's AND or
XOR.  Candidate selection reads the entries that :class:`CutSetCache`
maintains, so it never walks or simulates a cone and builds a
:class:`~repro.cuts.cut.Cut` only for a candidate.

The table ``T`` of a kept cut satisfies ``T(values of the leaves) = value of
the root`` under every primary-input assignment (by induction over the
merge), so a plan built from it is correct where it is inserted.  It equals
the simulated cone function (:func:`cut_function`) unless the cut is
*redundant* — some leaf lies inside the cone of the root over the other
leaves — and then the two differ only on leaf assignments the network
cannot produce.

Re-expressing a table over the union's leaves is memoised by ``(table,
position mask, 2**leaves)``; the memo is network-independent and far
smaller than the number of merges (a few thousand embeddings serve the
hundreds of thousands of cuts of a crypto batch).
"""

from __future__ import annotations

import weakref
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.cuts.cut import Cut
from repro.tt.bits import popcount, projection, table_mask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.cuts.cache import CutFunctionCache
from repro.xag.graph import NodeKind, SubstitutionResult, Xag, lit_node

#: one merge-set entry: sorted leaves, the root's table over them (leaf
#: ``i`` = variable ``i``) and whether an AND lies inside the cut cone.
MergeEntry = Tuple[Tuple[int, ...], int, bool]
#: ``(table, position mask, 2**num_vars)`` → the re-expressed table.
EmbeddingMemo = Dict[Tuple[int, int, int], int]

#: the constant node's only cut, and the trivial cut's table (variable 0).
_CONSTANT_ENTRY: MergeEntry = ((), 0, False)
_TRIVIAL_TABLE = 0b10


def _embed(table: int, positions: int, num_vars: int) -> int:
    """Re-express ``table`` over ``num_vars`` variables.

    ``table`` is a function of ``popcount(positions)`` variables; its
    variable ``j`` becomes the variable at the ``j``-th lowest set bit of
    ``positions``.  One multiplication replicates the table across all
    ``2**num_vars`` rows (the new high variables are don't-cares), then
    delta swaps move each variable to its position, highest first, so every
    swap exchanges a real variable with a don't-care.
    """
    width = popcount(positions)
    table *= table_mask(num_vars) // table_mask(width)
    var = width - 1
    for target in range(num_vars - 1, -1, -1):
        if not positions >> target & 1:
            continue
        if target != var:
            low = projection(var, num_vars) & ~projection(target, num_vars)
            shift = (1 << target) - (1 << var)
            table = (table & ~(low | low << shift)) \
                | (table & low) << shift | (table >> shift) & low
        var -= 1
    return table


def _merge_node_cuts(xag: Xag, node: int,
                     merge_sets: Dict[int, List[MergeEntry]],
                     cut_size: int, cut_limit: int,
                     embeddings: EmbeddingMemo) -> List[MergeEntry]:
    """Kept cuts of one gate, with tables, from its fan-ins' merge sets.

    Leaf sets are remapped into a *local* bit space: one bit per distinct
    leaf seen across both fan-ins, numbered in **descending** node order.
    The pairwise union is then one machine-word ``|`` and the size check one
    ``popcount``, and among sets of equal size the larger mask is the one
    whose sorted leaf tuple is lexicographically smaller (the highest
    differing bit is the smallest differing leaf).  Unions of at most
    ``cut_size`` leaves go into one bucket per size, each sorted in
    descending order: ascending sizes, then descending masks, is exactly
    the ``(size, leaves)`` priority order.  The dominance filter walks that
    order, testing each union against the already-kept ones only (a strict
    subset is smaller, so it comes first, and domination is transitive),
    and stops at ``cut_limit`` survivors — only those are converted back to
    tuples.

    Each union remembers the index ``i * len(entries1) + j`` of the last
    producer pair ``(entries0[i], entries1[j])`` that formed it (any pair
    gives a correct table).  A kept mask is decoded from its highest local
    bit down, which yields the leaves in ascending order and, in the same
    loop, each producer's position mask over them.

    This is the single definition of the per-node cut computation, shared
    by the one-shot enumeration and the incremental :class:`CutSetCache`
    so the two can never drift apart.
    """
    f0, f1 = xag.fanins(node)
    entries0 = merge_sets[lit_node(f0)]
    entries1 = merge_sets[lit_node(f1)]
    leaves0 = [entry[0] for entry in entries0]
    leaves1 = [entry[0] for entry in entries1]
    local_leaves = sorted(set().union(*leaves0, *leaves1), reverse=True)
    bit = dict(zip(local_leaves,
                   [1 << position for position in range(len(local_leaves))]
                   )).__getitem__
    masks0 = [sum(map(bit, leaves)) for leaves in leaves0]
    masks1 = [sum(map(bit, leaves)) for leaves in leaves1]
    # later pairs overwrite earlier ones: the last pair wins
    unions = dict(zip([mask0 | mask1 for mask0 in masks0 for mask1 in masks1],
                      count()))

    # note: a vectorised variant of this merge (uint64 outer union +
    # broadcast subset tests) measures *slower* than the scalar loop at the
    # typical ~13x13 batch size, so the merge stays pure Python.
    buckets: List[List[int]] = [[] for _ in range(cut_size + 1)]
    for union, size in zip(unions, map(popcount, unions)):
        if size <= cut_size:
            buckets[size].append(union)
    kept: List[int] = []
    for bucket in buckets:
        bucket.sort(reverse=True)
        for mask in bucket:
            for other in kept:
                # other ⊆ mask is (other & mask) == other (strict: the
                # unions are distinct)
                if other & mask == other:
                    break
            else:
                kept.append(mask)
                if len(kept) == cut_limit:
                    break
        if len(kept) == cut_limit:
            break

    is_and = xag._kind[node] == NodeKind.AND
    flip0 = f0 & 1
    flip1 = f1 & 1
    width = len(entries1)
    candidates: List[MergeEntry] = []
    for mask in kept:
        index0, index1 = divmod(unions[mask], width)
        mask0 = masks0[index0]
        mask1 = masks1[index1]
        _, table0, and0 = entries0[index0]
        _, table1, and1 = entries1[index1]
        leaves = []
        positions0 = positions1 = 0
        var = 1  # the bit of the next variable; ends as 2**len(leaves)
        rest = mask
        while rest:
            top = rest.bit_length() - 1
            leaves.append(local_leaves[top])
            top_bit = 1 << top
            if mask0 & top_bit:
                positions0 |= var
            if mask1 & top_bit:
                positions1 |= var
            var <<= 1
            rest ^= top_bit
        every = var - 1
        if positions0 != every:
            key = (table0, positions0, var)
            embedded = embeddings.get(key)
            if embedded is None:
                embedded = embeddings[key] = _embed(table0, positions0,
                                                    len(leaves))
            table0 = embedded
        if positions1 != every:
            key = (table1, positions1, var)
            embedded = embeddings.get(key)
            if embedded is None:
                embedded = embeddings[key] = _embed(table1, positions1,
                                                    len(leaves))
            table1 = embedded
        ones = (1 << var) - 1
        if flip0:
            table0 ^= ones
        if flip1:
            table1 ^= ones
        candidates.append((tuple(leaves),
                           table0 & table1 if is_and else table0 ^ table1,
                           is_and or and0 or and1))
    return candidates


def _leaf_entries(xag: Xag, node: int) -> Optional[List[MergeEntry]]:
    """Merge set of the constant or a primary input (``None`` for a gate)."""
    if xag.is_constant(node):
        return [_CONSTANT_ENTRY]
    if xag.is_pi(node):
        return [((node,), _TRIVIAL_TABLE, False)]
    return None


def enumerate_cuts(xag: Xag, cut_size: int = 6, cut_limit: int = 12) -> Dict[int, List[Cut]]:
    """Cut sets for every gate node.

    Returns a dictionary mapping each node index to its list of non-trivial
    cuts (primary inputs and the constant node map to empty lists).  Cuts are
    ordered by increasing leaf count and carry their tables (see the module
    docstring).  This is the one-shot reference of :class:`CutSetCache`.
    """
    if cut_size < 2:
        raise ValueError("cut_size must be at least 2")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")

    # cut entries usable for merging, per node.  Iteration follows the live
    # topological order: after an in-place substitution the creation order
    # is no longer topological, and dead nodes are skipped.
    merge_sets: Dict[int, List[MergeEntry]] = {}
    embeddings: EmbeddingMemo = {}
    result: Dict[int, List[Cut]] = {}

    for node in xag.topological_order():
        entries = _leaf_entries(xag, node)
        if entries is not None:
            merge_sets[node] = entries
            result[node] = []
            continue
        kept = _merge_node_cuts(xag, node, merge_sets, cut_size, cut_limit,
                                embeddings)
        result[node] = [Cut(node, leaves, table, has_and)
                        for leaves, table, has_and in kept]
        # the trivial cut participates in the merges of the fan-outs
        kept.append(((node,), _TRIVIAL_TABLE, False))
        merge_sets[node] = kept
    return result


class CutSetCache:
    """Incrementally maintained cut sets for one network.

    One-shot :func:`enumerate_cuts` recomputes the bottom-up merge for every
    node on every call — O(network) per rewriting round even when a round
    only touched a few cones.  This cache keeps the per-node merge sets
    alive across rounds and subscribes to the network's mutation events
    (:meth:`repro.xag.graph.Xag.subscribe`).  An in-place substitution only
    records its dirty, revived and killed nodes; the next :meth:`cuts`
    call expands everything recorded since the previous call to its
    transitive fanout once (:meth:`repro.xag.graph.Xag.edited_closure`) —
    the nodes whose cut sets *may* have changed — and drops the entries of
    the dead ones.

    Then it walks the topological order with an early cutoff.  A node
    without an entry (new, or after :meth:`bind` or a rollback) is merged.
    A node of the closure is merged again only if it was edited itself
    (rewired or revived) or the entry of one of its fan-ins changed in this
    walk; every other node keeps its entry.  A re-merged entry equal to the
    old one by value does not count as changed, and the old list is kept.
    This gives the same sets as a fresh enumeration: an entry is a
    deterministic function of the node's kind, its two fan-in literals and
    its fan-ins' entries (in order, which decides the producer pair of each
    cut), so a node with unchanged literals and fan-in entries would get
    back the entry it has.

    The entries are the representation: :meth:`cuts` hands out the
    maintained merge sets themselves, and nothing else is built per merge.
    The table-embedding memo of the merge is network-independent, so it
    survives :meth:`bind` and :meth:`on_rollback`.

    Entries are never modified in place, so a shallow copy of the merge
    dict describes the network it was taken from.  :meth:`snapshot` clones
    the bound network together with such a copy; :meth:`bind` hands the
    copy back when that clone becomes the working network (a rolled-back
    round) unedited, and the next :meth:`cuts` call of any network drops
    it.
    """

    def __init__(self, cut_size: int = 6, cut_limit: int = 12) -> None:
        if cut_size < 2:
            raise ValueError("cut_size must be at least 2")
        if cut_limit < 1:
            raise ValueError("cut_limit must be at least 1")
        self.cut_size = cut_size
        self.cut_limit = cut_limit
        self._merge: Dict[int, List[MergeEntry]] = {}
        self._embeddings: EmbeddingMemo = {}
        #: dirty, revived and killed nodes of the substitutions since the
        #: last :meth:`cuts` call (expanded there).
        self._edited: Set[int] = set()
        self._bound_xag: Optional[Xag] = None
        self._bound_epoch = -1
        self._bound_mutation_epoch = -1
        #: the last :meth:`snapshot`: a weak reference to the clone, its
        #: mutation and rollback epochs at cloning, and the merge sets.
        self._snapshot: Optional[Tuple["weakref.ref[Xag]", int, int,
                                       Dict[int, List[MergeEntry]]]] = None
        #: True from a hand-back to the next :meth:`cuts` call.
        self._handed_back = False
        #: merges run across all calls (the benchmark counter).
        self.nodes_recomputed = 0
        #: cut sets put in question when recorded edits were expanded
        #: (dropped, merged again or kept by the cutoff).
        self.invalidations = 0
        #: :meth:`cuts` calls that started from handed-back merge sets.
        self.snapshot_reads = 0

    def bind(self, xag: Xag) -> None:
        """Attach the cache to ``xag``, subscribing to its mutation events.

        The merge sets start empty (the next :meth:`cuts` call enumerates
        every node), unless ``xag`` is the clone of the last
        :meth:`snapshot` and has not been edited since: then the merge sets
        taken with it are handed back.
        """
        if (xag is self._bound_xag
                and xag._rollback_epoch == self._bound_epoch
                and xag._mutation_epoch == self._bound_mutation_epoch):
            return
        merge: Dict[int, List[MergeEntry]] = {}
        if self._snapshot is not None:
            clone, mutation_epoch, rollback_epoch, taken = self._snapshot
            if (clone() is xag and xag._mutation_epoch == mutation_epoch
                    and xag._rollback_epoch == rollback_epoch):
                merge = taken
                self._handed_back = True
            self._snapshot = None
        self._merge = merge
        self._edited.clear()
        if self._bound_xag is not None and self._bound_xag is not xag:
            self._bound_xag.unsubscribe(self)
        self._bound_xag = xag
        self._bound_epoch = xag._rollback_epoch
        self._bound_mutation_epoch = xag._mutation_epoch
        xag.subscribe(self)

    def snapshot(self, xag: Xag) -> Xag:
        """A clone of ``xag``, taken together with the merge sets that
        describe it.

        The merge sets are kept only when the cache is bound to ``xag`` and
        has recorded no edit since its last read; the clone has the same
        node indices, so they describe it exactly.  :meth:`bind` hands them
        back if the clone is bound before it is edited; the next
        :meth:`cuts` call drops them.
        """
        clone = xag.clone()
        self._snapshot = None
        if xag is self._bound_xag and not self._edited:
            self._snapshot = (weakref.ref(clone), clone._mutation_epoch,
                              clone._rollback_epoch, dict(self._merge))
        return clone

    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """Record the nodes an in-place edit changed (expanded lazily)."""
        if xag is not self._bound_xag:
            return
        edited = self._edited
        edited.update(result.dirty)
        edited.update(result.revived)
        edited.update(result.killed)
        self._bound_mutation_epoch = xag._mutation_epoch

    def on_rollback(self, xag: Xag) -> None:
        """Rollback recycles node indices: drop every cut set."""
        if xag is not self._bound_xag:
            return
        self._merge.clear()
        self._edited.clear()
        self._bound_epoch = xag._rollback_epoch

    def cuts(self, xag: Xag) -> Dict[int, List[MergeEntry]]:
        """Merge sets of every live node, brought up to date.

        Each gate maps to its kept cuts in priority order, followed by its
        trivial cut; a primary input and the constant map to their single
        entry.  The returned dictionary and its lists are the maintained
        state, valid until the next edit: read them, never modify them.
        """
        self.bind(xag)
        # a snapshot taken before this read is not handed back any more
        self._snapshot = None
        if self._handed_back:
            self._handed_back = False
            self.snapshot_reads += 1
        merge_sets = self._merge
        edited = self._edited
        closure: Set[int] = set()
        if edited:
            closure = xag.edited_closure(edited)
            dead = xag._dead
            for node in closure:
                if merge_sets.get(node) is not None:
                    self.invalidations += 1
                    if dead[node]:
                        del merge_sets[node]
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        # nodes whose entry was created or replaced in this walk
        changed: Set[int] = set()
        for node in xag.topological_order():
            old = merge_sets.get(node)
            if old is not None and (
                    node not in closure
                    or (node not in edited
                        and fanin0[node] >> 1 not in changed
                        and fanin1[node] >> 1 not in changed)):
                continue
            entries = _leaf_entries(xag, node)
            if entries is None:
                entries = _merge_node_cuts(xag, node, merge_sets,
                                           self.cut_size, self.cut_limit,
                                           self._embeddings)
                entries.append(((node,), _TRIVIAL_TABLE, False))
                self.nodes_recomputed += 1
            if entries != old:
                merge_sets[node] = entries
                changed.add(node)
        edited.clear()
        return merge_sets


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

    This is the simulated reference: it walks and simulates the cut cone.
    An enumerated cut already carries its table (``cut.table``, equal to
    this one unless the cut is redundant, see the module docstring).
    ``cache`` may pass a shared :class:`repro.cuts.cache.CutFunctionCache` so
    that repeated queries for the same cut simulate the cone only once
    until the network changes.
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

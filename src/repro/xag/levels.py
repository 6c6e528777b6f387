"""Maintained per-node AND-levels (multiplicative depth) of a XAG.

MPC/FHE cost models price a circuit by its AND count *and* its
multiplicative depth — homomorphic noise growth is exponential in the number
of AND gates on the longest PI→PO path.  :func:`repro.xag.depth.node_levels`
computes those levels from scratch in one topological pass, which is exactly
what a depth-aware rewriting flow cannot afford per candidate: every gate
examined needs current levels for its cut leaves and root.

:class:`LevelTracker` therefore keeps one level per node alive across
in-place rewriting, following the same event-driven discipline as
the cut caches:

* appending nodes only computes the new suffix;
* :meth:`repro.xag.graph.Xag.substitute_node` is observed through the
  network's mutation events — only the rewired gates and their transitive
  fanout are recomputed, pruning where the level did not change;
* a rollback resets the tracker via the network's rollback epoch.

Levels follow the :func:`~repro.xag.depth.node_levels` convention: the
constant and the primary inputs sit at level 0, a gate sits at the maximum
fan-in level plus its weight.  With ``and_only`` (the default) XOR gates are
transparent (weight 0) and the tracked quantity is the multiplicative
depth; with ``and_only=False`` every gate weighs 1 and the tracked quantity
is the ordinary logic depth (used by the XOR-tree balancer).

Entries of dead nodes are stale — only live-node levels are meaningful.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.xag.graph import NodeKind, SubstitutionResult, Xag, lit_node


class LevelCache:
    """Shares one :class:`LevelTracker` across consumers of one flow.

    A tracker is bound to a single network object; flows that replace their
    working network (a discarded round restores a pre-round snapshot) need
    the tracker rebound.  This holder owns that rebinding in one place so
    several consumers — the rewriters of different objectives, the depth
    guard of a pipeline — observe the *same* maintained levels instead of
    each paying for a private tracker.
    """

    def __init__(self, and_only: bool = True) -> None:
        self.and_only = and_only
        self._tracker: Optional["LevelTracker"] = None

    def tracker(self, xag: Xag) -> "LevelTracker":
        """Tracker bound to ``xag`` (rebound when the network changes)."""
        tracker = self._tracker
        if tracker is None or tracker.xag is not xag:
            tracker = LevelTracker(xag, and_only=self.and_only)
            self._tracker = tracker
        return tracker


class LevelTracker:
    """Incrementally maintained per-node levels bound to one :class:`Xag`."""

    def __init__(self, xag: Xag, and_only: bool = True) -> None:
        self.xag = xag
        self.and_only = and_only
        self._levels: List[int] = []
        self._synced = 0
        self._rollback_epoch = xag._rollback_epoch
        #: nodes rewired/revived by substitutions since the last sync.
        self._pending_dirty: Set[int] = set()
        #: nodes levelled by suffix syncs (initial pass + appended nodes).
        self.full_updates = 0
        #: nodes recomputed by transitive-fanout invalidation sweeps.
        self.incremental_updates = 0
        xag.subscribe(self)

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """Record per-node invalidations from an in-place edit (lazy)."""
        if xag is not self.xag:
            return
        synced = self._synced
        pending = self._pending_dirty
        for node in result.dirty:
            if node < synced:
                pending.add(node)
        for node in result.revived:
            if node < synced:
                pending.add(node)
        for node in result.killed:
            pending.discard(node)

    def on_rollback(self, xag: Xag) -> None:
        """Rollback invalidates everything; :meth:`sync` resets via the epoch."""
        self._pending_dirty.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring the level array up to date with the network."""
        xag = self.xag
        count = xag.num_nodes
        if xag._rollback_epoch != self._rollback_epoch:
            self._rollback_epoch = xag._rollback_epoch
            del self._levels[:]
            self._synced = 0
            self._pending_dirty.clear()
        pending = self._pending_dirty
        if count == self._synced and not pending:
            return
        self._levels.extend([0] * (count - len(self._levels)))
        if xag.is_topo_clean() and not pending:
            self._compute_range(self._synced, count)
            self.full_updates += count - self._synced
        else:
            self._resync(count)
            pending.clear()
        self._synced = count

    def levels(self) -> List[int]:
        """Level of every node (live list — do not mutate).

        Entries of dead nodes are stale; only live-node levels are meaningful.
        """
        self.sync()
        return self._levels

    def level(self, node: int) -> int:
        """Level of one (live) node."""
        self.sync()
        return self._levels[node]

    def critical_level(self) -> int:
        """Largest level over the primary-output drivers.

        With ``and_only`` this is the network's multiplicative depth (the
        value :func:`repro.xag.depth.multiplicative_depth` recomputes from
        scratch).  Unreachable logic never contributes — only PO cones count.
        """
        self.sync()
        levels = self._levels
        po_lits = self.xag.po_literals()
        if not po_lits:
            return 0
        return max(levels[lit_node(lit)] for lit in po_lits)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _compute_range(self, start: int, end: int) -> None:
        xag = self.xag
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        levels = self._levels
        and_kind = NodeKind.AND
        xor_kind = NodeKind.XOR
        and_only = self.and_only
        for node in range(start, end):
            kind = kinds[node]
            if kind == and_kind or kind == xor_kind:
                base = max(levels[fanin0[node] >> 1], levels[fanin1[node] >> 1])
                levels[node] = base + (1 if (kind == and_kind or not and_only)
                                       else 0)
            else:
                levels[node] = 0

    def _resync(self, count: int) -> None:
        """One topological pass recomputing new and invalidated nodes only.

        A gate is recomputed when it is new, was rewired, or has a fan-in
        whose level changed; a recomputation that reproduces the stored
        level stops the propagation.
        """
        xag = self.xag
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        levels = self._levels
        pending = self._pending_dirty
        new_start = self._synced
        and_kind = NodeKind.AND
        xor_kind = NodeKind.XOR
        and_only = self.and_only
        changed = bytearray(count)
        appended = 0
        recomputed = 0
        for node in xag.topological_order():
            kind = kinds[node]
            if kind != and_kind and kind != xor_kind:
                continue
            f0 = fanin0[node]
            f1 = fanin1[node]
            is_new = node >= new_start
            if not (is_new or node in pending
                    or changed[f0 >> 1] or changed[f1 >> 1]):
                continue
            value = max(levels[f0 >> 1], levels[f1 >> 1]) + \
                (1 if (kind == and_kind or not and_only) else 0)
            if is_new:
                appended += 1
            else:
                recomputed += 1
            if value != levels[node]:
                levels[node] = value
                changed[node] = 1
        self.full_updates += appended
        self.incremental_updates += recomputed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        metric = "and" if self.and_only else "gate"
        return (f"<LevelTracker {metric} nodes={self._synced}/"
                f"{self.xag.num_nodes} full={self.full_updates} "
                f"incr={self.incremental_updates}>")

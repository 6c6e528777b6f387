"""Per-node AND-levels (multiplicative depth) of an XAG, kept per network.

MPC/FHE cost models price a circuit by its AND count *and* its
multiplicative depth — homomorphic noise growth is exponential in the number
of AND gates on the longest PI→PO path.  A depth-aware rewriting round reads
the levels of every examined root and its cut leaves, and the depth guard
reads the critical level after every round, so the levels are kept per
network and recomputed only when the network changed:

* :class:`LevelTracker` — binds one network and memoises
  :func:`repro.xag.depth.node_levels` for it.  It subscribes to the
  network's mutation events; a substitution or a rollback only drops the
  memo, and the next query recomputes every level in one topological pass.
  Appending nodes does not notify, so a query also recomputes when the
  node count changed.  Queries against an unchanged network are free.

* :class:`LevelCache` — a one-slot holder owned by an optimisation context
  (like :class:`repro.xag.bitsim.SimulationCache`), so the rewriters of
  different objectives and the depth guard of one flow read the same
  tracker.

Levels follow the :func:`~repro.xag.depth.node_levels` convention: the
constant and the primary inputs sit at level 0, a gate sits at the maximum
fan-in level plus its weight.  With ``and_only`` (the default) XOR gates are
transparent (weight 0) and the tracked quantity is the multiplicative
depth; with ``and_only=False`` every gate weighs 1 and the tracked quantity
is the ordinary logic depth (used by the XOR-tree balancer).

Only live-node levels are meaningful.
"""

from __future__ import annotations

from typing import List, Optional

from repro.xag.depth import node_levels
from repro.xag.graph import SubstitutionResult, Xag, lit_node


class LevelCache:
    """Shares one :class:`LevelTracker` across consumers of one flow.

    A tracker is bound to a single network object; flows that replace their
    working network (a discarded round restores a pre-round snapshot) need
    the tracker rebound.  This holder owns that rebinding in one place so
    several consumers — the rewriters of different objectives, the depth
    guard of a pipeline — read the *same* memoised levels instead of each
    paying for a private tracker.
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
    """Per-node levels of one :class:`Xag`, recomputed after each change.

    Every query first calls :meth:`sync`, which recomputes
    :func:`~repro.xag.depth.node_levels` when an edit dropped the stored
    levels or the node count changed.
    """

    def __init__(self, xag: Xag, and_only: bool = True) -> None:
        self.xag = xag
        self.and_only = and_only
        self._levels: Optional[List[int]] = None
        xag.subscribe(self)

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """An in-place edit invalidates every stored level."""
        self._levels = None

    def on_rollback(self, xag: Xag) -> None:
        """A rollback invalidates every stored level."""
        self._levels = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Recompute the levels if the network changed since the last query."""
        xag = self.xag
        if self._levels is not None and len(self._levels) == xag.num_nodes:
            return
        self._levels = node_levels(xag, self.and_only)

    def levels(self) -> List[int]:
        """Level of every node (do not mutate; replaced after a change).

        Only live-node levels are meaningful.
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

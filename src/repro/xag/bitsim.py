"""Incremental, packed-integer bit-parallel simulation of XAGs.

The seed simulator (:mod:`repro.xag.simulate`) recomputes the value of every
node on every call, which makes repeated queries — equivalence checks after
each rewriting round, re-simulation after appending nodes, stimulus sweeps —
pay the full network cost each time.  This module provides the two pieces the
optimisation flows build on instead:

* :class:`BitSimulator` — holds one arbitrarily wide packed integer per node
  (Python big-ints act as bit-vectors of any width, so thousands of input
  patterns are simulated in a single topological pass).  The simulator is
  *incremental*:

  - appending nodes to the network only simulates the new suffix
    (:meth:`BitSimulator.sync`);
  - rolling the network back resets the value array (detected via the
    network's rollback epoch);
  - **in-place substitutions** (:meth:`repro.xag.graph.Xag.substitute_node`)
    are observed through the network's mutation events: only the rewired
    gates and their transitive fanout are recomputed, with value-change
    pruning — packed words for untouched cones stay valid across whole
    convergence flows;
  - changing the stimulus (:meth:`BitSimulator.update_inputs`) or externally
    dirtying nodes (:meth:`BitSimulator.invalidate`) likewise recomputes
    **only the transitive fanout** of the changed nodes.

* :class:`SimulationCache` — a small LRU of simulators keyed by network
  identity.  A convergence pass of :mod:`repro.rewriting.pipeline` verifies
  ``round k``'s output against ``round k+1``'s input, which is the *same
  network object*; with the cache each network is fully simulated exactly
  once over the whole flow instead of once per equivalence check.

The per-node update counters (:attr:`BitSimulator.full_updates`,
:attr:`BitSimulator.incremental_updates`) feed the engine's per-stage report
and the speed benchmark in ``benchmarks/bench_engine_speed.py``.

Node values are Python big-ints on every kernel backend: a big-int
already packs any number of patterns into one word, so the numpy backend
(:mod:`repro.kernels`) serves only the batched cut-cone simulation of
candidate selection, never this simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional, Sequence, Set

from repro.xag.graph import (NodeKind, SubstitutionResult, Xag,
                             lit_complemented, lit_node)


class BitSimulator:
    """Incremental word-parallel simulator bound to one :class:`Xag`.

    ``pi_words`` assigns one packed integer per primary input (in PI creation
    order); ``mask`` is the all-ones word defining the simulation width.
    Values are computed lazily: every query first calls :meth:`sync`, which
    simulates only the nodes created — or invalidated by an in-place
    substitution — since the last query.  The simulator subscribes to the
    network's mutation events on construction.
    """

    def __init__(self, xag: Xag, pi_words: Sequence[int], mask: int) -> None:
        self.xag = xag
        self.mask = mask
        self._pi_words: List[int] = list(pi_words)
        self._values: List[int] = []
        self._synced = 0
        self._rollback_epoch = xag._rollback_epoch
        #: nodes rewired/revived by substitutions since the last sync.
        self._pending_dirty: Set[int] = set()
        #: nodes simulated by suffix syncs (initial pass + appended nodes).
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
    # stimulus
    # ------------------------------------------------------------------
    def stimulus_matches(self, pi_words: Sequence[int]) -> bool:
        """True when ``pi_words`` equals the currently applied stimulus."""
        return self._pi_words == list(pi_words)

    def update_inputs(self, pi_words: Sequence[int]) -> int:
        """Apply a new stimulus, recomputing only the fanout of changed PIs.

        Returns the number of gate nodes that were recomputed — on localised
        stimulus changes this is far smaller than the network size, which is
        the point of keeping the simulator around between queries.
        """
        self.sync()
        xag = self.xag
        if len(pi_words) != xag.num_pis:
            raise ValueError("one simulation word per primary input is required")
        values = self._values
        mask = self.mask
        changed = bytearray(xag.num_nodes)
        any_changed = False
        for position, node in enumerate(xag.pis()):
            word = pi_words[position] & mask
            if values[node] != word:
                values[node] = word
                changed[node] = 1
                any_changed = True
        self._pi_words = list(pi_words)
        if not any_changed:
            return 0
        return self._propagate(bytearray(xag.num_nodes), changed)

    def invalidate(self, nodes: Iterable[int]) -> int:
        """Recompute ``nodes`` and their transitive fanout.

        This is the explicit hook for external invalidation; in-place edits
        performed through :meth:`Xag.substitute_node` are picked up
        automatically via the network's mutation events.  Returns the number
        of gate nodes recomputed.
        """
        self.sync()
        xag = self.xag
        need = bytearray(xag.num_nodes)
        changed = bytearray(xag.num_nodes)
        any_need = False
        for node in nodes:
            if xag.is_pi(node):
                # PIs have no fan-ins: refresh immediately, propagate changes
                word = self._pi_words[xag.pi_index(node)] & self.mask
                if word != self._values[node]:
                    self._values[node] = word
                    changed[node] = 1
            else:
                need[node] = 1
            any_need = True
        if not any_need:
            return 0
        return self._propagate(need, changed)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring the value array up to date with the network.

        Nodes appended since the last call are simulated; gates rewired by an
        in-place substitution (delivered via mutation events) are recomputed
        together with their transitive fanout, pruning where the packed word
        did not change.  A rollback that happened *between* queries (possibly
        followed by re-growth past the old size) is detected via the
        network's rollback epoch, in which case everything is resimulated.
        """
        xag = self.xag
        count = xag.num_nodes
        if xag._rollback_epoch != self._rollback_epoch:
            self._rollback_epoch = xag._rollback_epoch
            del self._values[:]
            self._synced = 0
            self._pending_dirty.clear()
        pending = self._pending_dirty
        if count == self._synced and not pending:
            return
        if len(self._pi_words) != xag.num_pis:
            raise ValueError("one simulation word per primary input is required")
        self._values.extend([0] * (count - len(self._values)))
        if xag.is_topo_clean() and not pending:
            self._simulate_range(self._synced, count)
            self.full_updates += count - self._synced
        else:
            self._resync(count)
            self._pending_dirty.clear()
        self._synced = count

    def values(self) -> List[int]:
        """Packed values of every node (live list — do not mutate).

        Entries of dead nodes are stale; only live-node values are meaningful.
        """
        self.sync()
        return self._values

    def value(self, node: int) -> int:
        """Packed value of one (live) node."""
        self.sync()
        return self._values[node]

    def literal_value(self, lit: int) -> int:
        """Packed value of a literal (complement realised against the mask)."""
        word = self.value(lit_node(lit))
        return word ^ self.mask if lit_complemented(lit) else word

    def po_words(self) -> List[int]:
        """Packed values of all primary outputs."""
        self.sync()
        values = self._values
        mask = self.mask
        out = []
        for lit in self.xag.po_literals():
            word = values[lit >> 1]
            if lit & 1:
                word ^= mask
            out.append(word)
        return out

    def po_snapshot(self) -> List[int]:
        """Snapshot of all PO values (:meth:`po_words`) for :meth:`po_matches`."""
        return self.po_words()

    def po_matches(self, snapshot: List[int]) -> bool:
        """True when the current PO values equal an earlier snapshot."""
        return self.po_words() == snapshot

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _simulate_range(self, start: int, end: int) -> None:
        xag = self.xag
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        values = self._values
        mask = self.mask
        pi_words = self._pi_words
        and_kind = NodeKind.AND
        xor_kind = NodeKind.XOR
        pi_kind = NodeKind.PI
        pi_position = None  # built lazily: appended suffixes rarely contain PIs
        for node in range(start, end):
            kind = kinds[node]
            if kind == and_kind or kind == xor_kind:
                f0 = fanin0[node]
                f1 = fanin1[node]
                a = values[f0 >> 1]
                if f0 & 1:
                    a ^= mask
                b = values[f1 >> 1]
                if f1 & 1:
                    b ^= mask
                values[node] = (a & b) if kind == and_kind else (a ^ b)
            elif kind == pi_kind:
                if pi_position is None:
                    pi_position = {pi: i for i, pi in enumerate(xag.pis())}
                values[node] = pi_words[pi_position[node]] & mask
            else:
                values[node] = 0

    def _resync(self, count: int) -> None:
        """One topological pass recomputing new and invalidated nodes only.

        Used when the network was edited in place (index order may no longer
        be topological) or when substitution events queued dirty nodes.  The
        pass walks the live topological order, recomputing a gate when it is
        new, was rewired, or has a fan-in whose packed word changed; a
        recomputation that reproduces the stored word stops the propagation.
        """
        xag = self.xag
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        values = self._values
        mask = self.mask
        pending = self._pending_dirty
        new_start = self._synced
        and_kind = NodeKind.AND
        xor_kind = NodeKind.XOR
        pi_kind = NodeKind.PI
        changed = bytearray(count)
        pi_position = None
        appended = 0
        recomputed = 0
        for node in xag.topological_order():
            kind = kinds[node]
            if kind == and_kind or kind == xor_kind:
                f0 = fanin0[node]
                f1 = fanin1[node]
                is_new = node >= new_start
                if not (is_new or node in pending
                        or changed[f0 >> 1] or changed[f1 >> 1]):
                    continue
                a = values[f0 >> 1]
                if f0 & 1:
                    a ^= mask
                b = values[f1 >> 1]
                if f1 & 1:
                    b ^= mask
                word = (a & b) if kind == and_kind else (a ^ b)
                if is_new:
                    appended += 1
                else:
                    recomputed += 1
                if word != values[node]:
                    values[node] = word
                    changed[node] = 1
            elif kind == pi_kind:
                if node >= new_start:
                    if pi_position is None:
                        pi_position = {pi: i for i, pi in enumerate(xag.pis())}
                    values[node] = self._pi_words[pi_position[node]] & mask
        self.full_updates += appended
        self.incremental_updates += recomputed

    def _propagate(self, need: bytearray, changed: bytearray) -> int:
        """One topological sweep recomputing marked gates and their fanout.

        ``need`` marks gates that must be recomputed regardless (their
        fan-ins were edited or they were explicitly invalidated); ``changed``
        marks nodes whose packed word already changed.  Gates are visited in
        topological order, so a requested gate always reads final fan-in
        words even when the caller passed dependent nodes in arbitrary
        order; a recomputation that reproduces the stored word stops the
        propagation.
        """
        xag = self.xag
        kinds = xag._kind
        fanin0 = xag._fanin0
        fanin1 = xag._fanin1
        values = self._values
        mask = self.mask
        dead = xag._dead
        and_kind = NodeKind.AND
        xor_kind = NodeKind.XOR
        updated = 0
        if xag.is_topo_clean():
            order: Iterable[int] = range(xag.num_nodes)
        else:
            order = xag.topological_order()
        for node in order:
            kind = kinds[node]
            if (kind != and_kind and kind != xor_kind) or dead[node]:
                continue
            f0 = fanin0[node]
            f1 = fanin1[node]
            if not (need[node] or changed[f0 >> 1] or changed[f1 >> 1]):
                continue
            a = values[f0 >> 1]
            if f0 & 1:
                a ^= mask
            b = values[f1 >> 1]
            if f1 & 1:
                b ^= mask
            word = (a & b) if kind == and_kind else (a ^ b)
            updated += 1
            if word != values[node]:
                values[node] = word
                changed[node] = 1
        self.incremental_updates += updated
        return updated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BitSimulator nodes={self._synced}/{self.xag.num_nodes} "
                f"full={self.full_updates} incr={self.incremental_updates}>")


class SimulationCache:
    """LRU of :class:`BitSimulator` instances keyed by network identity.

    The cache holds strong references to the networks it has simulated, so an
    ``id()`` key can never be recycled while its entry is alive.  ``max_entries``
    bounds memory: the convergence loop only ever needs the last two networks,
    the engine's batch runner a handful more.  Because every simulator
    subscribes to its network's mutation events, a cached entry stays valid
    across in-place rewrites of the same network object.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, BitSimulator]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: cache entries refreshed in place via transitive-fanout invalidation
        #: (same network and width, different stimulus).
        self.stimulus_updates = 0

    def simulator(self, xag: Xag, pi_words: Sequence[int], mask: int) -> BitSimulator:
        """Simulator for ``xag`` under the given stimulus (reused when possible).

        A cached simulator with the same stimulus is returned as-is; one with
        a *different* stimulus of the same width is refreshed through
        :meth:`BitSimulator.update_inputs`, recomputing only the transitive
        fanout of the changed inputs instead of resimulating from scratch.
        """
        key = id(xag)
        sim = self._entries.get(key)
        if sim is not None and sim.xag is xag and sim.mask == mask:
            if sim.stimulus_matches(pi_words):
                self.hits += 1
            elif len(pi_words) == xag.num_pis == len(sim._pi_words):
                sim.update_inputs(pi_words)
                self.stimulus_updates += 1
            else:
                # PI count changed since the simulator was built (or the
                # stimulus width is wrong) — rebuild instead of refreshing
                sim = None
            if sim is not None:
                self._entries.move_to_end(key)
                return sim
        self.misses += 1
        sim = BitSimulator(xag, pi_words, mask)
        self._entries[key] = sim
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return sim

    def discard(self, xag: Xag) -> None:
        """Drop the cached simulator of one network, if any."""
        self._entries.pop(id(xag), None)

    def clear(self) -> None:
        """Drop every cached simulator and reset the hit counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of simulator requests served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

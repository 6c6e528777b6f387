"""Packed-integer bit-parallel simulation words of an XAG, kept per network.

A rewriting round or a balancing pass is verified by comparing the packed
primary-output words of the network before and after it.  The strength of
that check depends only on the stimulus and the compared words, never on
how the words were computed, so this module recomputes them in one shot:

* :class:`BitSimulator` — binds one network and one stimulus (one
  arbitrarily wide Python big-int per primary input, so thousands of
  patterns run in a single topological pass).  It subscribes to the
  network's mutation events; a substitution or a rollback only drops the
  stored node values, and the next query re-simulates the whole network
  with :func:`repro.xag.simulate.node_values`.  Queries against an
  unchanged network are free, so a convergence loop pays one simulation
  per round that changed something.

* :class:`SimulationCache` — a one-slot holder owned by an optimisation
  context (like :class:`repro.xag.levels.LevelCache`), so the rewriter and
  the balancing pass of one flow read the same simulator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.xag.graph import SubstitutionResult, Xag
from repro.xag.simulate import node_values


class BitSimulator:
    """Packed node values of one :class:`Xag` under one stimulus.

    ``pi_words`` assigns one packed integer per primary input (in PI creation
    order); ``mask`` is the all-ones word defining the simulation width.
    Every query first calls :meth:`sync`, which re-simulates the network
    when an edit dropped the stored values or the node count changed.
    """

    def __init__(self, xag: Xag, pi_words: Sequence[int], mask: int) -> None:
        self.xag = xag
        self.mask = mask
        self.pi_words: List[int] = list(pi_words)
        self._values: Optional[List[int]] = None
        xag.subscribe(self)

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """An in-place edit invalidates every stored value."""
        self._values = None

    def on_rollback(self, xag: Xag) -> None:
        """A rollback invalidates every stored value."""
        self._values = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Re-simulate the network if it changed since the last query."""
        xag = self.xag
        if self._values is not None and len(self._values) == xag.num_nodes:
            return
        if len(self.pi_words) != xag.num_pis:
            raise ValueError("one simulation word per primary input is required")
        self._values = node_values(xag, self.pi_words, self.mask)

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


class SimulationCache:
    """Holds the one :class:`BitSimulator` an optimisation flow verifies with.

    A flow replaces its working network when it sweeps or restores a
    snapshot; the holder rebinds then, so every consumer of the flow reads
    the same simulator without keeping simulators of earlier networks alive.
    """

    def __init__(self) -> None:
        self._simulator: Optional[BitSimulator] = None

    def simulator(self, xag: Xag, pi_words: Sequence[int], mask: int) -> BitSimulator:
        """Simulator bound to ``xag`` under the given stimulus.

        The held simulator is returned when it matches; otherwise a new one
        replaces it.
        """
        sim = self._simulator
        if (sim is None or sim.xag is not xag or sim.mask != mask
                or sim.pi_words != list(pi_words)):
            sim = self._simulator = BitSimulator(xag, pi_words, mask)
        return sim

"""Shared implementation-plan cache, and the cone-function reference memo.

During cut rewriting the same Boolean functions recur constantly — carry
chains, S-box slices, majority fragments — and in the seed every candidate
cut paid for (a) a fresh simulation of its cone and (b) a fresh trip through
:meth:`repro.mc.database.McDatabase.plan_for`.  The cut merge now computes
each cut's truth table (:mod:`repro.cuts.enumeration`), which removes (a)
from rewriting altogether; this module answers (b) for the rewriter
(:class:`repro.rewriting.rewrite.CutRewriter`):

* **implementation plans** are memoised by the network-independent key
  ``(truth table, num_vars)``.  This is the first level of a two-level
  canonical-form scheme: the exact table resolves here, and a miss falls
  through to the :class:`~repro.mc.database.McDatabase`, which keys recipes
  by the *affine class representative*.  The net effect is that a cut
  function hits the MC database (and affine classification) once per batch
  of circuits, not once per cut per round;

* **multiplicative-complexity lower bounds** are memoised beside the plans,
  under the same key.  :meth:`CutFunctionCache.prunes` answers "can any
  plan for this function cost at most ``k`` ANDs?" from
  :func:`repro.mc.bounds.lower_bound` alone, without touching the
  database, so the rewriter skips the lookup of a candidate that provably
  cannot win;

* **cone functions** — a cut's function obtained by simulating its cone —
  are memoised per network, keyed by ``(root, leaves)``, behind
  :func:`repro.cuts.enumeration.cut_function` with a cache.  Candidate
  selection no longer reads them (its ``function_*`` counters and
  ``stored_functions`` read 0 for engine runs); they stay as the simulated
  reference the tests and the benchmark's traced names use.  The memo
  subscribes to the bound network's mutation events and is dropped
  wholesale by every in-place edit
  (:meth:`repro.xag.graph.Xag.substitute_node`), every rollback and every
  bind to a different network (:meth:`CutFunctionCache.bind`), as
  :class:`repro.xag.bitsim.BitSimulator` drops its simulation words.

The cache is deliberately long-lived: :func:`repro.rewriting.pipeline.run_pipeline`
keeps one across all passes and rounds of a pipeline, and
:mod:`repro.engine` keeps one across a whole batch of benchmark circuits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.mc.bounds import lower_bound
from repro.mc.database import ImplementationPlan, McDatabase
from repro.tt.bits import projection, table_mask
from repro.xag.graph import SubstitutionResult, Xag, lit_node
from repro.xag.structhash import cone_hash as _cone_hash


class CutFunctionCache:
    """Memoising front-end for MC database plans (and cone simulation)."""

    def __init__(self, database: Optional[McDatabase] = None) -> None:
        # explicit `is None` check — an empty McDatabase is falsy (it defines
        # __len__) but must still be honoured.
        self.database = database if database is not None else McDatabase()
        self._functions: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        #: cone interiors (topological node lists), same keys and lifetime
        #: as the cone-function memo.
        self._interiors: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        self._plans: Dict[Tuple[int, int], ImplementationPlan] = {}
        #: multiplicative-complexity lower bounds, same keys as the plans.
        self._lower_bounds: Dict[Tuple[int, int], int] = {}
        self._bound_xag: Optional[Xag] = None
        self.function_hits = 0
        self.function_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        #: candidates :meth:`prunes` ruled out before any plan lookup.
        self.plans_pruned = 0

    @classmethod
    def ensure(cls, cut_cache: Optional["CutFunctionCache"],
               database: Optional[McDatabase]) -> "CutFunctionCache":
        """Reconcile an optional shared cache with an optional database.

        Returns ``cut_cache`` when given (raising if it is bound to a
        *different* explicit ``database``), otherwise a fresh cache over
        ``database``.  This is the single place encoding the pairing rule for
        every API that accepts both parameters.
        """
        if cut_cache is None:
            return cls(database)
        if database is not None and cut_cache.database is not database:
            raise ValueError("cut_cache is bound to a different database")
        return cut_cache

    # ------------------------------------------------------------------
    # cone functions (per network, dropped on every change)
    # ------------------------------------------------------------------
    def bind(self, xag: Xag) -> None:
        """Attach the cone-function memo to ``xag``.

        Keys of the memo are node indices, so entries from a different
        network are meaningless: binding to a new network drops them, and
        so do the hooks on every in-place edit and rollback of the bound
        network.  Appending nodes leaves every existing cone as it is.
        Every read goes through here.  The plan memo is keyed by truth
        tables and survives rebinding.
        """
        if xag is self._bound_xag:
            return
        self._drop_cones()
        if self._bound_xag is not None:
            self._bound_xag.unsubscribe(self)
        self._bound_xag = xag
        xag.subscribe(self)

    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """An in-place edit invalidates the whole cone-function memo."""
        self._drop_cones()

    def on_rollback(self, xag: Xag) -> None:
        """A rollback recycles node indices: drop the whole cone-function memo."""
        self._drop_cones()

    def _drop_cones(self) -> None:
        self._functions.clear()
        self._interiors.clear()

    def cone_function(self, xag: Xag, root: int, leaves: Tuple[int, ...],
                      interior: Optional[Sequence[int]] = None) -> int:
        """Truth table of ``root`` over ``leaves`` (leaf ``i`` = variable ``i``).

        A memo hit answers outright; a miss simulates the cone.
        ``interior`` may pass an already-computed topological ordering of the
        cone (as produced by :func:`repro.cuts.enumeration.cut_cone`) to skip
        the traversal on a memo miss.
        """
        self.bind(xag)
        key = (root, leaves)
        table = self._functions.get(key)
        if table is not None:
            self.function_hits += 1
            return table
        self.function_misses += 1
        if interior is None:
            interior = self.cone_interior(xag, root, leaves)
        table = _simulate_cone(xag, root, leaves, interior)
        self._functions[key] = table
        return table

    def cone_hash_for(self, xag: Xag, root: int, leaves: Tuple[int, ...],
                      interior: Optional[Sequence[int]] = None) -> int:
        """Canonical structural hash of the ``(root, leaves)`` cone (unmemoised).

        The rewriter never calls it; it stays resolvable because
        ``perfbench/spans.py`` traces it by name.
        """
        return _cone_hash(xag, root, leaves, interior)

    def has_cone_function(self, xag: Xag, root: int,
                          leaves: Tuple[int, ...]) -> bool:
        """True when :meth:`cone_function` will answer from the memo."""
        self.bind(xag)
        return (root, leaves) in self._functions

    def cone_interior(self, xag: Xag, root: int,
                      leaves: Tuple[int, ...]) -> List[int]:
        """Topologically-ordered cone of ``(root, leaves)``, memoised.

        The traversal shares the cone-function memo's lifetime.
        """
        self.bind(xag)
        key = (root, leaves)
        interior = self._interiors.get(key)
        if interior is None:
            from repro.cuts.enumeration import cut_cone
            interior = cut_cone(xag, root, leaves)
            self._interiors[key] = interior
        return interior

    def install_cone_functions(self, xag: Xag,
                               entries: Sequence[Tuple[Tuple[int, Tuple[int, ...]], int]]) -> None:
        """Store batch-computed cone functions, counting one miss each.

        The install half of batched cone simulation
        (:meth:`repro.kernels.numpy_backend.NumpyBackend.simulate_cones`),
        with the same hit/miss accounting as individual
        :meth:`cone_function` misses.  Candidate selection no longer calls
        it; it stays resolvable because ``perfbench/spans.py`` traces it by
        name.
        """
        self.bind(xag)
        functions = self._functions
        for key, table in entries:
            if key in functions:
                continue
            self.function_misses += 1
            functions[key] = table

    # ------------------------------------------------------------------
    # implementation plans (network independent)
    # ------------------------------------------------------------------
    def plan_for(self, table: int, num_vars: int) -> ImplementationPlan:
        """Implementation plan for ``table``, memoised by exact function."""
        table &= table_mask(num_vars)
        key = (table, num_vars)
        plan = self._plans.get(key)
        if plan is not None:
            self.plan_hits += 1
            return plan
        self.plan_misses += 1
        plan = self.database.plan_for(table, num_vars)
        self._plans[key] = plan
        return plan

    def prunes(self, table: int, num_vars: int, max_ands: int) -> bool:
        """True when no plan for ``table`` can use ``max_ands`` ANDs or fewer.

        Every plan realises its function, so it has at least the
        multiplicative-complexity lower bound's AND count; a candidate whose
        budget lies below the bound can be dropped without a lookup.  The
        bound is memoised per ``(table, num_vars)`` as passed (the table is
        masked to ``num_vars`` only on a miss: selection asks several times
        per cut function); each ``True`` answer counts one
        :attr:`plans_pruned`.  Neither the plan memo nor the database is
        touched.
        """
        key = (table, num_vars)
        bound = self._lower_bounds.get(key)
        if bound is None:
            bound = self._lower_bounds[key] = lower_bound(
                table & table_mask(num_vars), num_vars)
        if bound > max_ands:
            self.plans_pruned += 1
            return True
        return False

    # ------------------------------------------------------------------
    # persistence (warm-start bundles)
    # ------------------------------------------------------------------
    def plan_keys(self) -> List[Tuple[int, int]]:
        """Sorted ``(table, num_vars)`` keys of every memoised plan.

        These keys are what a warm-start bundle persists for this cache: the
        plans themselves are reconstructed on load from the database's
        recipes and classifications, so storing the keys is enough.
        """
        return sorted(self._plans)

    def warm_start(self, keys: Sequence[Sequence[int]],
                   origin: str = "bundle") -> int:
        """Pre-materialise plans for ``keys`` (from a bundle or another shard).

        Goes through :meth:`McDatabase.materialize_plan`, which serves
        restored classifications without counting them as hits — after a
        warm start the statistics still measure only the work of the current
        run.  Returns the number of plans installed; a key that is not a
        ``[table, num_vars]`` pair raises :class:`ValueError` naming
        ``origin`` and the entry index.
        """
        installed = 0
        for position, entry in enumerate(keys):
            try:
                table, num_vars = entry
                key = (int(table), int(num_vars))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{origin}: malformed plan entry "
                                 f"#{position}: {exc}") from exc
            if key in self._plans:
                continue
            self._plans[key] = self.database.materialize_plan(*key)
            installed += 1
        return installed

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for the engine report and the ablation benchmarks."""
        function_total = self.function_hits + self.function_misses
        plan_total = self.plan_hits + self.plan_misses
        return {
            "stored_functions": len(self._functions),
            "stored_plans": len(self._plans),
            "function_hits": self.function_hits,
            "function_misses": self.function_misses,
            "function_hit_rate": self.function_hits / function_total if function_total else 0.0,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": self.plan_hits / plan_total if plan_total else 0.0,
            "plans_pruned": self.plans_pruned,
        }

    def clear(self) -> None:
        """Drop all memoised entries and counters (the database is untouched)."""
        self._drop_cones()
        self._plans.clear()
        self._lower_bounds.clear()
        if self._bound_xag is not None:
            self._bound_xag.unsubscribe(self)
        self._bound_xag = None
        self.function_hits = 0
        self.function_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plans_pruned = 0

    def __len__(self) -> int:
        return len(self._plans)


def _simulate_cone(xag: Xag, root: int, leaves: Tuple[int, ...],
                   interior: Sequence[int]) -> int:
    """Simulate a cut cone with projection truth tables."""
    num_vars = len(leaves)
    mask = table_mask(num_vars)
    values: Dict[int, int] = {0: 0}
    for position, leaf in enumerate(leaves):
        values[leaf] = projection(position, num_vars)
    for node in interior:
        f0, f1 = xag.fanins(node)
        a = values[lit_node(f0)]
        if f0 & 1:
            a ^= mask
        b = values[lit_node(f1)]
        if f1 & 1:
            b ^= mask
        values[node] = (a & b) if xag.is_and(node) else (a ^ b)
    return values[root]

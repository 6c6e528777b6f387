"""Cut rewriting for multiplicative-complexity (and size) minimisation.

This module implements the paper's Algorithm 1 as a two-phase, DAG-aware
rewriting pass in the spirit of Mishchenko et al. [1]:

*Phase 1 — candidate selection.*  For every gate (in topological order) its
priority cuts are examined.  For each cut the function of the cut is
read, classified to its affine representative, and the representative's
recipe is fetched from the database (Alg. 1 lines 1–9).  The *gain* of the
candidate is the number of AND gates inside the cut cone that belong to the
root's maximum fanout-free cone (they disappear if the root is re-expressed)
minus the AND gates of the recipe (the affine re-wiring is AND-free).  The
best positive-gain candidate of each node is recorded.

Selection builds only the structure a candidate can still use.  The root's
MFFC comes first: a root whose MFFC holds fewer ANDs than the model's floor
is skipped without looking at a cone.  Each cut's (ANDs, gates) saving is
one walk down the MFFC that stops at the cut's leaves
(:func:`repro.cuts.mffc.mffc_saving`); that is the cut cone ∩ MFFC, because
every path from the root to an MFFC node stays inside the MFFC.  Selection
never walks or simulates a cut cone: it reads the merge entries ``(leaves,
table, has_and)`` that :class:`~repro.cuts.enumeration.CutSetCache`
maintains — each cut's truth table and "AND in cone" bit, computed in the
cut merge (:mod:`repro.cuts.enumeration`) — and builds a
:class:`~repro.cuts.cut.Cut` only for a candidate it prices.  Under a floor
of 0 the bit decides whether a zero-saving cut has an AND to offer.

Unlike Alg. 1, most cuts never reach classification.  No recipe beats the
multiplicative complexity of its function, and ``MC(f) >= deg(f) - 1``
(Dickson's rank gives the exact value for quadratics; see
:func:`repro.mc.bounds.lower_bound`), so a candidate's AND gain is at most
its MFFC saving minus that bound.  When the cost model states the smallest
AND gain it can accept (:meth:`~repro.rewriting.cost.CostModel.min_and_gain`),
every candidate whose bound already rules that gain out is dropped before
the plan lookup (:meth:`repro.cuts.cache.CutFunctionCache.prunes`).  Such a
candidate is one the veto would refuse anyway, and plans depend on the
truth table alone, so pruning changes no selection — only how many
functions are classified and synthesised.  The bound (memoised per truth
table) is read against the MFFC's AND count before a cut's MFFC walk
wherever every cut it prunes there would reach the bound check after the
walk: when the root is an AND (it lies in every cut cone, so the saving
reaches a floor of 1) or the floor is at most 0 (a pruned cut's table is
not affine, so its cone holds an AND).  The walk is skipped for those cuts
and every count stays what the walk-first order gives.

*Phase 2 — application.*  Each winning candidate is built on top of its cut
leaves inside the *same* network and the root is replaced via
:meth:`repro.xag.graph.Xag.substitute_node` — fan-outs and primary outputs
are rewired, the displaced MFFC is dereferenced, and subscribed observers
see each edit: cut sets (with their tables) are merged again only where
they can change, while the AND-levels and the packed simulation words are
dropped wholesale (the next level read and the round's equivalence check
each recompute the network in one pass).  Roots are applied in completion order of a walk from the primary
outputs that descends through a selected root's cut leaves
(:meth:`CutRewriter._applied_roots`), so every leaf is final before its
root is replaced.

Every round examines every live gate, as Alg. 1 does.  What a later round
does not redo is the structure: the cut sets and their tables are
maintained across substitutions and merged again only where an edit can
change them (:class:`~repro.cuts.enumeration.CutSetCache`), and plans are
memoised per truth table (:class:`~repro.cuts.cache.CutFunctionCache`).

The ``objective`` parameter selects the :class:`~repro.rewriting.cost.CostModel`
that prices candidates, vetoes replacements and decides round convergence —
either a registered name (``"mc"``, ``"size"``, ``"mc-depth"``, ``"fhe"``,
…) or a model instance injected directly.  Depth-aware models price the
AND-level gain at the cut root against the levels of
:class:`repro.xag.levels.LevelTracker` and can refuse any replacement that
would *raise* the root's AND-level — so no node level, and in particular
the critical AND-level (multiplicative depth), can ever increase.  A plan's
AND-level over the cut leaves is ``max(c, max_j level(leaf j) + d_j)``, with
terms derived once per plan
(:attr:`~repro.mc.database.ImplementationPlan.level_terms`), and its gate
cost is likewise computed once per plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.cuts.cache import CutFunctionCache
from repro.cuts.cut import Cut
from repro.cuts.enumeration import CutSetCache
from repro.cuts.mffc import mffc, mffc_saving
from repro.mc.database import ImplementationPlan, McDatabase
from repro.rewriting.cost import CostModel, cost_model
from repro.rewriting.insert import insert_plan
from repro.xag.bitsim import SimulationCache
from repro.xag.cleanup import sweep, sweep_owned
from repro.xag.equivalence import equivalence_stimulus
from repro.xag.graph import NodeKind, Xag, lit_node, literal
from repro.xag.levels import LevelCache, LevelTracker


@dataclass
class RewriteParams:
    """Knobs of one rewriting pass (paper §4.1 defaults)."""

    #: maximum number of cut leaves (the paper uses 6, the largest size for
    #: which optimum representatives are known).
    cut_size: int = 6
    #: maximum number of cuts stored per node (paper value: 12).
    cut_limit: int = 12
    #: the cost model pricing this pass: a registered name ("mc" minimises
    #: AND gates — the paper's objective; "size" minimises total gates;
    #: "mc-depth" minimises AND gates then the root AND-level and never
    #: deepens; "fhe" minimises the weighted noise budget, depth first) or a
    #: :class:`~repro.rewriting.cost.CostModel` instance injected directly.
    objective: Union[str, CostModel] = "mc"
    #: also accept replacements with zero AND gain but a positive total-gate
    #: gain (reduces XOR overhead without ever increasing the AND count).
    allow_zero_gain: bool = False
    #: check functional equivalence of every rewritten network.
    verify: bool = True

    @property
    def cost(self) -> CostModel:
        """The resolved cost model (raises ``ValueError`` for unknown names)."""
        return cost_model(self.objective)


@dataclass
class Candidate:
    """A selected replacement for one node."""

    cut: Cut
    plan: ImplementationPlan
    gain_ands: int
    gain_gates: int
    #: reduction of the root's AND-level (only priced by depth-aware cost
    #: models; negative values mean the replacement would deepen the root).
    gain_depth: int = 0
    #: the root's current AND-level (depth-aware models only — lets a veto
    #: reason about absolute level budgets, not just the gain).
    root_level: int = 0


@dataclass
class RoundStats:
    """Statistics of a single rewriting round."""

    ands_before: int = 0
    xors_before: int = 0
    ands_after: int = 0
    xors_after: int = 0
    nodes_considered: int = 0
    candidates_evaluated: int = 0
    rewrites_selected: int = 0
    rewrites_applied: int = 0
    runtime_seconds: float = 0.0
    #: time spent inside the equivalence check (included in runtime_seconds).
    verify_seconds: float = 0.0
    #: plan-memo traffic of this round (deltas of the shared cache counters).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    verified: Optional[bool] = None
    #: name of the cost model the round was priced under.
    objective: str = "mc"
    #: the cost model's own verdict on this round, recorded by the rewriter
    #: (``None`` for hand-built stats — :attr:`made_progress` then resolves
    #: the model by name).
    progress: Optional[bool] = None
    #: multiplicative depth before/after (tracked for "mc-depth" rounds).
    depth_before: int = 0
    depth_after: int = 0
    #: Phase-1 / Phase-2 wall clock (both included in runtime_seconds).
    select_seconds: float = 0.0
    apply_seconds: float = 0.0
    #: substitutions performed (incl. cascaded collapses).
    substitutions: int = 0

    @property
    def and_improvement(self) -> float:
        """Fractional reduction of the AND count in this round."""
        if self.ands_before == 0:
            return 0.0
        return 1.0 - self.ands_after / self.ands_before

    @property
    def made_progress(self) -> bool:
        """True when the round improved its cost model's objective.

        The verdict is the cost model's
        :meth:`~repro.rewriting.cost.CostModel.made_progress` — "mc" counts
        AND gates, "size" counts all gates, "mc-depth" counts AND count *or*
        multiplicative depth, "fhe" its weighted noise score.  Convergence
        loops use this instead of comparing AND counts directly, so (e.g.)
        depth-only rounds are not discarded.  Rounds executed by the
        rewriter carry the verdict in :attr:`progress`; stats built by hand
        resolve the model from :attr:`objective`.
        """
        if self.progress is not None:
            return self.progress
        try:
            model = cost_model(self.objective)
        except ValueError:
            return self.ands_after < self.ands_before
        return model.made_progress(self)


class CutRewriter:
    """Two-phase DAG-aware cut rewriting engine (see module docstring)."""

    def __init__(self, database: Optional[McDatabase] = None,
                 params: Optional[RewriteParams] = None,
                 cut_cache: Optional[CutFunctionCache] = None,
                 sim_cache: Optional[SimulationCache] = None,
                 cut_sets: Optional[CutSetCache] = None,
                 levels: Optional[LevelCache] = None) -> None:
        # note: explicit `is None` checks — an empty McDatabase / cache is
        # falsy because it defines __len__, but it must still be honoured.
        self.cut_cache = CutFunctionCache.ensure(cut_cache, database)
        self.database = self.cut_cache.database
        self.sim_cache = sim_cache if sim_cache is not None else SimulationCache()
        self.params = params if params is not None else RewriteParams()
        #: incrementally maintained cut sets (updated from mutation events).
        #: A shared instance may be injected — the pipeline layer keeps one
        #: alive across every pass of a flow — as long as its cut parameters
        #: match the rewriting parameters.
        if cut_sets is not None:
            if (cut_sets.cut_size, cut_sets.cut_limit) != \
                    (self.params.cut_size, self.params.cut_limit):
                raise ValueError("shared cut_sets cache was built for "
                                 "different cut_size/cut_limit parameters")
            self.cut_sets = cut_sets
        else:
            self.cut_sets = CutSetCache(cut_size=self.params.cut_size,
                                        cut_limit=self.params.cut_limit)
        #: AND-levels of the network currently being rewritten
        #: (bound lazily, only under the "mc-depth" objective; a shared
        #: :class:`LevelCache` lets several rewriters and a depth guard
        #: observe the same tracker).
        self._level_cache = levels if levels is not None else LevelCache()

    def _levels(self, xag: Xag) -> LevelTracker:
        """Level tracker bound to ``xag`` (rebound when the network changes)."""
        return self._level_cache.tracker(xag)

    def _model(self) -> CostModel:
        """The resolved cost model.

        Resolution is deliberately lazy — at rewrite time, not construction
        — so a :class:`CutRewriter` can be built before the model (or a
        late-registered plugin) exists; an unknown name raises the
        registry's descriptive ``ValueError`` here.
        """
        return cost_model(self.params.objective)

    # ------------------------------------------------------------------
    def rewrite(self, xag: Xag) -> Tuple[Xag, RoundStats]:
        """Run one every-gate round on a copy of ``xag``; return it swept.

        The input network is never modified.  Callers driving a convergence
        loop should use :meth:`rewrite_in_place` directly to keep one
        network identity — and its observer-maintained caches — alive
        across rounds.
        """
        working = sweep_owned(xag)
        stats, _pre = self.rewrite_in_place(working)
        return sweep(working), stats

    def rewrite_in_place(self, xag: Xag, snapshot: bool = False
                         ) -> Tuple[RoundStats, Optional[Xag]]:
        """Run one in-place round on ``xag``, mutating it.

        Phase 1 examines every live gate.  Returns the round statistics
        and, with ``snapshot``, a clone of the pre-application network
        whenever the round is about to mutate (``None`` for empty rounds and
        without ``snapshot``); the convergence loop uses it to discard a
        final round that brought no improvement.
        """
        model = self._model()
        stats = RoundStats(ands_before=xag.num_ands, xors_before=xag.num_xors,
                           objective=model.name)
        start = time.perf_counter()
        if model.depth_aware:
            stats.depth_before = self._levels(xag).critical_level()

        sim = None
        po_before: Optional[List[int]] = None
        if self.params.verify:
            verify_start = time.perf_counter()
            words, mask, _ = equivalence_stimulus(xag.num_pis)
            sim = self.sim_cache.simulator(xag, words, mask)
            po_before = sim.po_snapshot()
            stats.verify_seconds += time.perf_counter() - verify_start

        selections = self._select_candidates(xag, stats)
        stats.select_seconds = time.perf_counter() - start - stats.verify_seconds

        apply_start = time.perf_counter()
        # the clone keeps the cut sets read above, for a rollback to it
        pre_round = self.cut_sets.snapshot(xag) \
            if snapshot and selections else None
        self._apply_in_place(xag, selections, stats)
        stats.apply_seconds = time.perf_counter() - apply_start

        stats.ands_after = xag.num_ands
        stats.xors_after = xag.num_xors
        if model.depth_aware:
            stats.depth_after = self._levels(xag).critical_level()
        stats.progress = model.made_progress(stats)
        if self.params.verify:
            verify_start = time.perf_counter()
            assert sim is not None and po_before is not None
            stats.verified = sim.po_matches(po_before)
            stats.verify_seconds += time.perf_counter() - verify_start
            if not stats.verified:
                raise AssertionError("cut rewriting changed the network function")
        stats.runtime_seconds = time.perf_counter() - start
        return stats, pre_round

    # ------------------------------------------------------------------
    # phase 1: candidate selection
    # ------------------------------------------------------------------
    def _select_candidates(self, xag: Xag,
                           stats: RoundStats) -> Dict[int, Candidate]:
        params = self.params
        model = self._model()
        cuts = self.cut_sets.cuts(xag)
        selections: Dict[int, Candidate] = {}
        cache = self.cut_cache
        plan_hits_before = cache.plan_hits
        plan_misses_before = cache.plan_misses
        depth_aware = model.depth_aware
        node_levels = self._levels(xag).levels() if depth_aware else None
        allow_zero_gain = params.allow_zero_gain
        # the smallest AND gain the model can accept (None: no floor).  Both
        # skips below run before the plan lookup: they save database
        # traffic, not just a comparison, so the cache statistics depend on
        # the model stating its floor exactly.
        min_gain = model.min_and_gain(allow_zero_gain)
        kinds = xag._kind
        and_kind = NodeKind.AND
        skip_and_free = not model.examine_and_free_cones

        for node in xag.gates():
            stats.nodes_considered += 1
            # MFFC first: a cut saves at most the MFFC's ANDs, so a root
            # whose MFFC holds fewer than the floor has no candidate.
            node_mffc = mffc(xag, node)
            bound_first = False
            if min_gain is not None:
                mffc_ands = sum(1 for n in node_mffc if kinds[n] == and_kind)
                if mffc_ands < min_gain:
                    continue
                # Every cut's saving is at most the MFFC's ANDs, so the
                # bound can be read before the walk; only where each cut
                # it prunes would reach the bound check below anyway (see
                # the module docstring), so no count moves.
                bound_first = min_gain <= 0 or (
                    min_gain == 1 and kinds[node] == and_kind)
                budget = mffc_ands - min_gain
            best: Optional[Candidate] = None
            best_key: Optional[Tuple[int, ...]] = None

            # the maintained merge entries: kept cuts in priority order,
            # then the trivial cut, which the size test skips
            for leaves, table, has_and in cuts[node]:
                size = len(leaves)
                if size < 2 or size > params.cut_size or node in leaves:
                    continue
                if bound_first and cache.prunes(table, size, budget):
                    continue
                saved_ands, saved_gates = mffc_saving(xag, node, leaves,
                                                      node_mffc)
                if min_gain is not None and saved_ands < min_gain:
                    # no plan has negative AND cost
                    continue
                if not saved_ands and skip_and_free and not has_and:
                    # AND-free cones have nothing to offer an AND-count
                    # objective (XOR gates are depth-transparent too).
                    continue
                if min_gain is not None and cache.prunes(
                        table, size, saved_ands - min_gain):
                    # every plan's AND cost exceeds the saving the model
                    # needs: the veto would refuse this candidate.
                    continue
                plan = cache.plan_for(table, size)
                stats.candidates_evaluated += 1

                gain_ands = saved_ands - plan.num_ands
                gain_gates = saved_gates - plan.estimated_gates
                gain_depth = 0
                root_level = 0
                if depth_aware:
                    assert node_levels is not None
                    root_level = node_levels[node]
                    gain_depth = root_level - plan.and_level(
                        [node_levels[leaf] for leaf in leaves])
                candidate = Candidate(Cut(node, leaves, table, has_and),
                                      plan, gain_ands, gain_gates,
                                      gain_depth, root_level)

                if not model.acceptable(candidate, allow_zero_gain):
                    continue
                key = model.key(candidate)
                if best_key is None or key > best_key:
                    best = candidate
                    best_key = key

            if best is not None:
                selections[node] = best
                stats.rewrites_selected += 1
        stats.plan_cache_hits = cache.plan_hits - plan_hits_before
        stats.plan_cache_misses = cache.plan_misses - plan_misses_before
        return selections

    # ------------------------------------------------------------------
    # phase 2: in-place application
    # ------------------------------------------------------------------
    @staticmethod
    def _applied_roots(xag: Xag, selections: Dict[int, Candidate]) -> List[int]:
        """Selected roots actually reachable, in application order.

        Walking from the primary outputs, the children of a selected node
        are its cut leaves — so a selected node buried inside another
        applied cone (and reachable nowhere else) is skipped: its
        replacement would die with the cone that contains it.  The returned
        completion order guarantees that every leaf of a root is finalised
        before the root is applied.  Both the order and the skip decide
        which cascades fold and which roots wait a round, so the pinned
        (ANDs, depth, rounds) triples depend on them.
        """
        visited: Set[int] = {0}
        visited.update(xag.pis())
        applied: List[int] = []
        po_nodes = [lit_node(lit) for lit in xag.po_literals()]
        stack: List[Tuple[int, bool]] = [(node, False) for node in reversed(po_nodes)]
        while stack:
            node, expanded = stack.pop()
            if node in visited and not expanded:
                continue
            if expanded:
                if node in visited:
                    continue
                visited.add(node)
                if node in selections:
                    applied.append(node)
                continue
            stack.append((node, True))
            candidate = selections.get(node)
            if candidate is not None:
                children = candidate.cut.leaves
            elif xag.is_gate(node):
                f0, f1 = xag.fanins(node)
                children = (lit_node(f0), lit_node(f1))
            else:
                children = ()
            for child in children:
                if child not in visited:
                    stack.append((child, False))
        return applied

    def _apply_in_place(self, xag: Xag, selections: Dict[int, Candidate],
                        stats: RoundStats) -> None:
        """Substitute every applied root by its candidate implementation.

        :func:`insert_plan` can leave orphans — rep-input chains for recipe
        variables the recipe never consumes.  They are deliberately left for
        the flow-end sweep rather than dereferenced per round: eagerly
        collecting them changes MFFC pricing in later rounds and with it the
        pinned (ANDs, depth, rounds) triples of the EPFL control group and
        perfbench/expected.json, while the final sweep compacts them away
        either way.
        """
        if not selections:
            return
        resolution: Dict[int, int] = {}

        def resolve(lit: int) -> int:
            node = lit >> 1
            complement = lit & 1
            while node in resolution:
                follow = resolution[node]
                complement ^= follow & 1
                node = follow >> 1
            return (node << 1) | complement

        for root in self._applied_roots(xag, selections):
            if xag.is_dead(root) or root in resolution:
                # folded away by an earlier substitution cascade
                continue
            candidate = selections[root]
            leaf_signals = [resolve(literal(leaf)) for leaf in candidate.cut.leaves]
            new_lit = insert_plan(xag, candidate.plan, leaf_signals)
            if (new_lit >> 1) != root:
                result = xag.substitute_node(root, new_lit)
                stats.rewrites_applied += 1
                stats.substitutions += len(result.pairs)
                for old, repl in result.pairs:
                    resolution[old] = repl

"""Composable pass pipelines over one shared optimisation context.

The paper's experiments are fixed recipes — one round → convergence for
Tables 1/2, balance → depth-guarded MC → mc-depth rewriting for the
depth-aware flow.  This module composes every recipe from three orthogonal
ideas, and :func:`run_pipeline` is the one function that runs them:

* :class:`OptimizationContext` — owns the working :class:`~repro.xag.graph.Xag`
  together with the caches that subscribe to its edits (incremental cut
  sets via :class:`~repro.cuts.enumeration.CutSetCache`, memoised cone
  functions and plans via :class:`~repro.cuts.cache.CutFunctionCache`,
  maintained AND levels via :class:`~repro.xag.levels.LevelCache`, the
  verification simulator via :class:`~repro.xag.bitsim.SimulationCache`),
  constructed **once** and shared by every pass, so a multi-stage flow
  keeps its cut sets, plans and levels across stage boundaries instead of
  re-enumerating the whole network at each one.

* :class:`Pass` — the unit of composition: ``run(ctx) -> PassResult`` with
  uniform statistics (counts, depth, rounds, balance stats, timing,
  verification), collected into one :class:`PipelineResult`.  Concrete
  passes are
  :class:`SweepPass`, :class:`BalancePass`, :class:`RewritePass` and
  :class:`SizeBaselinePass`; :class:`Repeat` and :class:`DepthGuard` are
  combinators over other passes.

* a tiny **flow-script language** (:func:`parse_flow`) so pipelines can be
  composed from the command line::

      balance,mc*,mc-depth*            # three passes in sequence
      repeat:8(balance,guard(mc*),mc-depth*)   # the depth flow
      baseline,mc,mc*                  # the paper flow with a size baseline

  Grammar (whitespace is ignored)::

      flow   := step ("," step)*
      step   := "repeat" [":" N] "(" flow ")"     # until (ANDs, depth) fixpoint
             |  "guard" "(" rewrite-atom ")"      # discard depth-raising rounds
             |  atom
      atom   := name ["*" [N]]                    # one round / up to N / fixpoint
      name   := "sweep" | "balance" | "baseline"
             |  <registered cost model>           # "mc", "size", "mc-depth",
                                                  # "fhe", any plugin name

  A bare rewrite atom (``mc``) runs exactly one round; ``mc*`` repeats until
  the objective stops improving; ``mc*3`` caps at three rounds.  ``guard``
  wraps a rewrite atom and snapshots the working network before each round,
  discarding any round that raises the critical AND-level.

:func:`standard_flow` builds the canonical recipe of a cost model and
:func:`optimize` is the one-:class:`RewritePass` shorthand.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.cuts.cache import CutFunctionCache
from repro.cuts.enumeration import CutSetCache
from repro.mc.database import McDatabase
from repro.rewriting.cost import (NAME_CHARS, CostModel, cost_model,
                                  registered_cost_models)
from repro.rewriting.rewrite import CutRewriter, RewriteParams, RoundStats
from repro.xag.balance import BalanceStats, balance_in_place
from repro.xag.bitsim import SimulationCache
from repro.xag.cleanup import sweep, sweep_owned
from repro.xag.depth import multiplicative_depth
from repro.xag.graph import Xag, lit_node
from repro.xag.levels import LevelCache


def _live_counts(xag: Xag) -> Tuple[int, int]:
    """(AND, XOR) counts of the PO-reachable cone, without copying.

    Mid-flow in-place networks carry orphan chains awaiting the flow-end
    sweep; ``num_ands`` counts them, this walk does not — so pass statistics
    and fixpoint scores describe the network a sweep would produce.
    """
    seen: Set[int] = set()
    stack = [lit_node(lit) for lit in xag.po_literals()]
    ands = xors = 0
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if not xag.is_gate(node):
            continue
        if xag.is_and(node):
            ands += 1
        else:
            xors += 1
        f0, f1 = xag.fanins(node)
        stack.append(f0 >> 1)
        stack.append(f1 >> 1)
    return ands, xors


class FlowSummary:
    """Shared improvement/convergence arithmetic of every flow result.

    Subclasses provide ``ands_before`` / ``ands_after`` / ``depth_before`` /
    ``depth_after`` (fields or properties) and a ``rounds`` sequence of
    :class:`~repro.rewriting.rewrite.RoundStats`; this mixin derives the
    fractional improvements and the convergence predicate from them.
    """

    @property
    def and_improvement(self) -> float:
        """Overall fractional AND reduction achieved by the flow."""
        before = self.ands_before
        if before == 0:
            return 0.0
        return 1.0 - self.ands_after / before

    @property
    def depth_improvement(self) -> float:
        """Overall fractional multiplicative-depth reduction."""
        before = self.depth_before
        if before == 0:
            return 0.0
        return 1.0 - self.depth_after / before

    @property
    def converged(self) -> bool:
        """True when the last executed round brought no further improvement
        of its objective (AND count for "mc", total gates for "size", AND
        count or multiplicative depth for "mc-depth")."""
        rounds = self.rounds
        return bool(rounds) and not rounds[-1].made_progress


@dataclass
class PassResult(FlowSummary):
    """Uniform statistics of one executed pass (or combinator)."""

    name: str
    #: pass family: "rewrite", "balance", "sweep", "baseline", "guard",
    #: "repeat" — reports aggregate stage timings by this key.
    kind: str = "pass"
    #: cost model of a rewrite pass (``None`` for structural passes).
    objective: Optional[str] = None
    #: PO-reachable counts and multiplicative depth around the pass.
    ands_before: int = 0
    xors_before: int = 0
    ands_after: int = 0
    xors_after: int = 0
    depth_before: int = 0
    depth_after: int = 0
    #: statistics of every round this pass (or its children) executed.
    rounds: List[RoundStats] = field(default_factory=list)
    #: statistics of every balancing stage this pass (or its children) ran.
    balance: List[BalanceStats] = field(default_factory=list)
    #: per-sub-pass results of a combinator, in execution order.
    children: List["PassResult"] = field(default_factory=list)
    #: iterations a :class:`Repeat` executed (0 for plain passes).
    iterations: int = 0
    #: rounds a :class:`DepthGuard` (or a convergence drain) rolled back.
    discarded_rounds: int = 0
    runtime_seconds: float = 0.0

    @property
    def changed(self) -> bool:
        """True when the pass improved its objective or rebuilt a tree."""
        if any(stats.made_progress for stats in self.rounds):
            return True
        if any(stats.trees_rebalanced for stats in self.balance):
            return True
        return any(child.changed for child in self.children)

    def walk(self) -> Iterator["PassResult"]:
        """This result followed by all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def verification_attempts(self) -> List[bool]:
        """Outcome of every equivalence check this pass actually ran."""
        attempts = [stats.verified for stats in self.rounds
                    if stats.verified is not None]
        attempts.extend(stats.verified for stats in self.balance
                        if stats.verified is not None)
        return attempts


class OptimizationContext:
    """Working network plus every shared cache of one optimisation flow.

    The context materialises an owned working copy of ``xag`` lazily (flows
    with a size baseline rebase first), then every pass mutates
    :attr:`network` in place through the context (or adopts a swept copy
    or a restored snapshot), so the subscriber caches survive across pass
    boundaries:

    * :attr:`sim_cache` holds the simulator of the working network: the
      per-round equivalence check re-simulates it once per changing round;
    * :attr:`cut_sets` maintains cut sets, with each cut's truth table,
      incrementally across substitutions;
    * :attr:`cut_cache` memoises implementation plans and lower bounds per
      truth table;
    * :attr:`levels` shares one maintained AND-level tracker between the
      depth-aware rewriter and the :class:`DepthGuard`.
    """

    def __init__(self, xag: Xag, database: Optional[McDatabase] = None,
                 params: Optional[RewriteParams] = None,
                 cut_cache: Optional[CutFunctionCache] = None) -> None:
        self.params = params if params is not None else RewriteParams()
        self.cut_cache = CutFunctionCache.ensure(cut_cache, database)
        self.database = self.cut_cache.database
        self.sim_cache = SimulationCache()
        self.cut_sets = CutSetCache(cut_size=self.params.cut_size,
                                    cut_limit=self.params.cut_limit)
        self.levels = LevelCache(and_only=True)
        #: the network improvements are priced against (rebased by a
        #: :class:`SizeBaselinePass`, mirroring the paper's "Initial" columns).
        self.initial = xag
        self._network: Optional[Xag] = None
        self._rewriters: Dict[tuple, CutRewriter] = {}

    # ------------------------------------------------------------------
    # working network
    # ------------------------------------------------------------------
    @property
    def materialized(self) -> bool:
        """True once a working network exists (first pass touched it)."""
        return self._network is not None

    @property
    def network(self) -> Xag:
        """The working network, which passes mutate in place.

        It is materialised on first use (and again after a :meth:`rebase`)
        as a swept copy of :attr:`initial` that the context owns, so no pass
        ever edits the caller's network or the "Initial" reference.
        """
        if self._network is None:
            self._network = sweep_owned(self.initial)
        return self._network

    def adopt(self, network: Xag) -> None:
        """Replace the working network by a fresh object the context owns
        (a restored snapshot or a swept copy).

        The subscriber caches rebind lazily on their next use (they key on
        network identity).
        """
        self._network = network

    def rebase(self, network: Xag) -> None:
        """Make ``network`` the flow's "Initial" reference point.

        Used by :class:`SizeBaselinePass`: subsequent improvements are priced
        against the baseline's output, exactly like the paper's tables.  The
        working network is dropped, so the next read materialises an owned
        copy of the new reference and later passes leave it intact.
        """
        self.initial = network
        self._network = None

    def finish(self) -> Xag:
        """The final network: the swept working copy (or the rebased input
        when no pass ever materialised a working network)."""
        if self._network is None:
            return self.initial
        return sweep(self._network)

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def rewriter(self, params: RewriteParams) -> CutRewriter:
        """The shared :class:`CutRewriter` for ``params`` (cached per key).

        Rewriters of every objective share the context's incremental cut-set
        cache (cut enumeration is objective independent) and level tracker;
        a pass with different cut parameters — the size baseline uses
        4/8 where the main flow uses 6/12 — gets a private cut-set cache.
        """
        key = astuple(params)
        rewriter = self._rewriters.get(key)
        if rewriter is None:
            shared = (params.cut_size, params.cut_limit) == \
                (self.params.cut_size, self.params.cut_limit)
            rewriter = CutRewriter(params=params, cut_cache=self.cut_cache,
                                   sim_cache=self.sim_cache,
                                   cut_sets=self.cut_sets if shared else None,
                                   levels=self.levels)
            self._rewriters[key] = rewriter
        return rewriter

    def critical_level(self) -> int:
        """Multiplicative depth of the working network.

        Served from the shared maintained :class:`LevelCache` tracker, so
        per-pass and per-fixpoint depth reads cost one incremental sync over
        the dirty fanout instead of a from-scratch topological pass.
        """
        return self.levels.tracker(self.network).critical_level()

    def score(self) -> Tuple[int, int]:
        """The ``(AND count, multiplicative depth)`` pair fixpoints run on."""
        ands, _ = _live_counts(self.network)
        return ands, self.critical_level()


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class Pass:
    """One composable unit of an optimisation pipeline.

    A pass reads and advances the shared :class:`OptimizationContext` and
    returns a :class:`PassResult`.  Custom passes only need to honour that
    contract — mutate :attr:`OptimizationContext.network` in place or
    replace it via ``ctx.adopt()`` so the subscriber caches stay coherent,
    and call :meth:`begin` / :meth:`complete` for uniform statistics.
    """

    name = "pass"
    kind = "pass"

    def run(self, ctx: OptimizationContext) -> PassResult:
        raise NotImplementedError

    # -- uniform bookkeeping -------------------------------------------
    def begin(self, ctx: OptimizationContext,
              objective: Optional[str] = None) -> PassResult:
        """Start a result with the network's current counts and depth."""
        ands, xors = _live_counts(ctx.network)
        return PassResult(name=self.name, kind=self.kind, objective=objective,
                          ands_before=ands, xors_before=xors,
                          depth_before=ctx.critical_level())

    @staticmethod
    def complete(ctx: OptimizationContext, result: PassResult,
                 start: float) -> PassResult:
        """Fill the after-counts and the runtime of ``result``."""
        ands, xors = _live_counts(ctx.network)
        result.ands_after = ands
        result.xors_after = xors
        result.depth_after = ctx.critical_level()
        result.runtime_seconds = time.perf_counter() - start
        return result


class SweepPass(Pass):
    """Compact the working network to its PO-reachable cone."""

    name = "sweep"
    kind = "sweep"

    def run(self, ctx: OptimizationContext) -> PassResult:
        start = time.perf_counter()
        result = self.begin(ctx)
        swept = sweep(ctx.network)
        if swept is not ctx.network:
            # compaction renumbers nodes: the caches rebind
            ctx.adopt(swept)
        return self.complete(ctx, result, start)


class BalancePass(Pass):
    """AND/XOR tree rebalancing (:func:`repro.xag.balance.balance_in_place`).

    Runs in place through ``substitute_node`` so the context's maintained
    levels, cut sets and verification simulator follow the edits of the
    same network object.
    """

    name = "balance"
    kind = "balance"

    def run(self, ctx: OptimizationContext) -> PassResult:
        start = time.perf_counter()
        result = self.begin(ctx)
        stats = balance_in_place(ctx.network, verify=ctx.params.verify,
                                 sim_cache=ctx.sim_cache)
        result.balance.append(stats)
        return self.complete(ctx, result, start)


class RewritePass(Pass):
    """MC cut rewriting rounds under one objective.

    ``max_rounds=1`` is a single round, ``None`` repeats until the objective
    stops improving.  Every round examines every live gate of the context's
    working network; a final round that brings no improvement is rolled
    back to its pre-round snapshot.
    """

    kind = "rewrite"

    def __init__(self, objective: Optional[Union[str, CostModel]] = None,
                 max_rounds: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        if objective is not None:
            # resolve eagerly: an unknown name must fail at composition time
            # (parse_flow, standard_flow), not rounds later
            default_name = cost_model(objective).name
        else:
            default_name = "rewrite"
        self.objective = objective
        self.max_rounds = max_rounds
        self.name = name if name is not None else default_name

    def resolved_params(self, ctx: OptimizationContext) -> RewriteParams:
        """The context's parameters with this pass's cost model applied."""
        params = ctx.params
        if self.objective is not None and \
                cost_model(self.objective) != cost_model(params.objective):
            params = replace(params, objective=self.objective)
        return params

    def run(self, ctx: OptimizationContext) -> PassResult:
        start = time.perf_counter()
        params = self.resolved_params(ctx)
        result = self.begin(ctx, objective=cost_model(params.objective).name)
        _drain_rounds(ctx, params, result, self.max_rounds)
        return self.complete(ctx, result, start)


def _drain_rounds(ctx: OptimizationContext, params: RewriteParams,
                  result: PassResult, max_rounds: Optional[int],
                  guard_level: Optional[int] = None) -> None:
    """Run in-place rewriting rounds on the context's working network.

    The shared protocol of :class:`RewritePass` and :class:`DepthGuard`:
    each round examines every live gate, runs with a pre-round snapshot,
    and a round that brings no improvement is rolled back to the snapshot.
    With ``guard_level`` a round that raises the critical AND-level above
    it is rolled back too, and — like the restart-based depth flow before
    it — only accepted rounds are reported.

    Each round's candidate selection reads every cut's truth table from
    the maintained cut sets, so it simulates no cone; the tables of the
    cuts a round's substitutions touched are recomputed in the cut merge
    at the next round (see :meth:`CutRewriter._select_candidates`).
    """
    rewriter = ctx.rewriter(params)
    working = ctx.network
    executed = 0
    while max_rounds is None or executed < max_rounds:
        stats, snapshot = rewriter.rewrite_in_place(working, snapshot=True)
        executed += 1
        if not stats.made_progress:
            if guard_level is None:
                # plain drains report their final no-improvement round
                result.rounds.append(stats)
            if snapshot is not None:
                # the round mutated but won nothing: restore the snapshot
                result.discarded_rounds += 1
                ctx.adopt(snapshot)
            return
        if guard_level is not None and ctx.critical_level() > guard_level:
            # the round's savings would deepen the critical path
            result.discarded_rounds += 1
            ctx.adopt(snapshot)
            return
        result.rounds.append(stats)


class SizeBaselinePass(Pass):
    """Generic size optimisation standing in for the paper's ABC baseline.

    A sweep, then up to ``max_rounds`` unit-cost rounds over small cuts,
    each examining every gate of a fresh swept copy
    (:meth:`~repro.rewriting.rewrite.CutRewriter.rewrite`).  Sweeping first
    keeps the gain of dropping dead logic even when no round makes progress
    (a round measures its progress against its own swept copy).  The result
    **rebases** the context — subsequent passes (and the flow's improvement
    figures) start from the baseline's output, mirroring the "Initial"
    columns of Tables 1 and 2.
    """

    name = "baseline"
    kind = "baseline"

    def __init__(self, max_rounds: int = 4, cut_size: int = 4,
                 cut_limit: int = 8) -> None:
        self.max_rounds = max_rounds
        self.cut_size = cut_size
        self.cut_limit = cut_limit

    def run(self, ctx: OptimizationContext) -> PassResult:
        start = time.perf_counter()
        # runs before the working copy exists in the common case — price the
        # baseline against whatever the flow currently starts from, without
        # forcing materialisation (the working copy should be swept from the
        # *baseline's* output, not from the raw input).
        source = ctx.network if ctx.materialized else ctx.initial
        params = RewriteParams(cut_size=self.cut_size, cut_limit=self.cut_limit,
                               objective="size", verify=ctx.params.verify)
        result = PassResult(name=self.name, kind=self.kind, objective="size",
                            ands_before=source.num_ands,
                            xors_before=source.num_xors,
                            depth_before=multiplicative_depth(source))
        rewriter = ctx.rewriter(params)
        current = sweep(source)
        for _ in range(self.max_rounds):
            improved, stats = rewriter.rewrite(current)
            result.rounds.append(stats)
            if not stats.made_progress:
                break
            current = improved
        ctx.rebase(current)
        result.ands_after = current.num_ands
        result.xors_after = current.num_xors
        result.depth_after = multiplicative_depth(current)
        result.runtime_seconds = time.perf_counter() - start
        return result


# ----------------------------------------------------------------------
# combinators
# ----------------------------------------------------------------------
class DepthGuard(Pass):
    """Run a rewrite pass one round at a time under a depth guard.

    The guard pins the critical AND-level observed at pass start: each round
    runs on the working network with a pre-round snapshot, and a round that
    raises the critical level is **discarded** by restoring the snapshot.
    This chases the pure-MC AND count (the mc-depth per-node veto refuses
    savings whose local level increase would be absorbed by path slack, and
    can steer into worse local optima when run first) while the depth still
    never increases.

    Rounds run on the context's working network and its maintained cut
    sets, so a guarded round does not restart a full cut enumeration.
    """

    kind = "guard"

    def __init__(self, inner: RewritePass, name: Optional[str] = None) -> None:
        self.inner = inner
        self.name = name if name is not None else f"guard({inner.name})"

    def run(self, ctx: OptimizationContext) -> PassResult:
        start = time.perf_counter()
        params = self.inner.resolved_params(ctx)
        result = self.begin(ctx, objective=cost_model(params.objective).name)
        _drain_rounds(ctx, params, result, self.inner.max_rounds,
                      guard_level=ctx.critical_level())
        return self.complete(ctx, result, start)


class Repeat(Pass):
    """Iterate a sub-pipeline until the ``(ANDs, depth)`` pair fixpoints.

    Every sub-pass of the depth flow is monotone in that pair, so iterating
    until an iteration neither changes the score nor rebuilds/rewrites
    anything terminates; ``max_iterations`` caps it regardless.
    """

    kind = "repeat"

    def __init__(self, passes: Sequence[Pass], max_iterations: int = 8,
                 name: str = "repeat") -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.passes = list(passes)
        self.max_iterations = max_iterations
        self.name = name

    def run(self, ctx: OptimizationContext) -> PassResult:
        start = time.perf_counter()
        result = self.begin(ctx)
        while result.iterations < self.max_iterations:
            result.iterations += 1
            score_before = ctx.score()
            changed = False
            for sub in self.passes:
                child = sub.run(ctx)
                result.children.append(child)
                result.rounds.extend(child.rounds)
                result.balance.extend(child.balance)
                result.discarded_rounds += child.discarded_rounds
                changed = changed or child.changed
            if not changed and ctx.score() == score_before:
                break
        return self.complete(ctx, result, start)


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------
#: name of the first rewrite pass of the paper pipeline (the "One round"
#: columns of Tables 1 and 2).
ONE_ROUND = "one-round"


@dataclass
class PipelineResult(FlowSummary):
    """Uniform outcome of running a pass pipeline on one network."""

    #: the network improvements are priced against (post-baseline).
    initial: Xag
    final: Xag
    passes: List[PassResult] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def rounds(self) -> List[RoundStats]:
        """Every rewriting round, across all passes, in execution order."""
        return [stats for result in self.passes for stats in result.rounds]

    @property
    def iterations(self) -> int:
        """Iterations executed by :class:`Repeat` combinators."""
        return sum(result.iterations for result in self.walk())

    @property
    def ands_before(self) -> int:
        return self.initial.num_ands

    @property
    def ands_after(self) -> int:
        return self.final.num_ands

    @property
    def depth_before(self) -> int:
        return multiplicative_depth(self.initial)

    @property
    def depth_after(self) -> int:
        return multiplicative_depth(self.final)

    def walk(self) -> Iterator[PassResult]:
        """All pass results, including combinator children, depth first."""
        for result in self.passes:
            yield from result.walk()

    @property
    def verified(self) -> Optional[bool]:
        """Aggregated verification verdict, ``None`` when nothing was checked.

        ``True`` only when at least one equivalence check ran and every one
        passed — a flow with zero rounds reports ``None`` (not attempted)
        instead of a vacuous ``True``.
        """
        attempts = [attempt for result in self.passes
                    for attempt in result.verification_attempts()]
        if not attempts:
            return None
        return all(attempts)

    def stage_seconds(self, kind: str) -> float:
        """Total wall clock of every pass of the given ``kind``."""
        return sum(result.runtime_seconds for result in self.walk()
                   if result.kind == kind)

    @property
    def one_round_pass(self) -> Optional[PassResult]:
        """The ``one-round`` pass of the paper pipeline (``None`` otherwise)."""
        return next((result for result in self.walk()
                     if result.name == ONE_ROUND), None)


def run_pipeline(xag: Xag, passes: Sequence[Pass],
                 database: Optional[McDatabase] = None,
                 params: Optional[RewriteParams] = None,
                 cut_cache: Optional[CutFunctionCache] = None) -> PipelineResult:
    """Run ``passes`` over one shared :class:`OptimizationContext`.

    The input network is never modified.
    """
    start = time.perf_counter()
    ctx = OptimizationContext(xag, database=database, params=params,
                              cut_cache=cut_cache)
    results = [pass_.run(ctx) for pass_ in passes]
    return PipelineResult(initial=ctx.initial, final=ctx.finish(),
                          passes=results,
                          runtime_seconds=time.perf_counter() - start)


def optimize(xag: Xag, database: Optional[McDatabase] = None,
             params: Optional[RewriteParams] = None,
             max_rounds: Optional[int] = None,
             cut_cache: Optional[CutFunctionCache] = None) -> PipelineResult:
    """Repeat cut rewriting until no improvement (or ``max_rounds``).

    Shorthand for :func:`run_pipeline` over one :class:`RewritePass` priced
    by ``params.objective`` ("mc" by default).  ``cut_cache`` may pass a
    plan memo shared with other runs (the engine shares one across a whole
    batch of circuits); a fresh one is created otherwise, so plans are still
    reused between the rounds of this call.
    """
    return run_pipeline(xag, [RewritePass(max_rounds=max_rounds)],
                        database=database, params=params,
                        cut_cache=cut_cache)


def standard_flow(objective: Union[str, CostModel] = "mc",
                  size_baseline: bool = False,
                  max_rounds: Optional[int] = None,
                  max_iterations: int = 8) -> List[Pass]:
    """The canonical pipeline for a cost model (what the engine runs).

    Plain models ("mc", "size", …) build the paper pipeline — one round,
    then repeat until convergence (``max_rounds`` caps the total) — while
    depth-aware models ("mc-depth", "fhe", …) build the depth flow:
    balance → depth-guarded mc rounds → objective rewriting, iterated to an
    ``(ANDs, depth)`` fixpoint (``max_rounds`` then caps every stage of
    every iteration).  Flow-script equivalents: ``"mc,mc*"`` and
    ``"repeat:8(balance,guard(mc*),mc-depth*)"``.  ``size_baseline``
    prepends a :class:`SizeBaselinePass`, which rebases the pipeline: the
    result's ``initial`` is then the baseline's output.
    """
    model = cost_model(objective)
    passes: List[Pass] = [SizeBaselinePass()] if size_baseline else []
    if model.depth_aware:
        flow_name = "depth-flow" if model.name == "mc-depth" \
            else f"{model.name}-flow"
        passes.append(Repeat(
            [BalancePass(),
             DepthGuard(RewritePass("mc", max_rounds=max_rounds)),
             RewritePass(objective, max_rounds=max_rounds, name=model.name)],
            max_iterations=max_iterations, name=flow_name))
        return passes
    passes.append(RewritePass(objective, max_rounds=1, name=ONE_ROUND))
    conv_cap = None if max_rounds is None else max(0, max_rounds - 1)
    if conv_cap != 0:
        passes.append(RewritePass(objective, max_rounds=conv_cap,
                                  name="convergence"))
    return passes


def _nested(passes: Sequence[Pass]) -> Iterator[Pass]:
    """Every pass of a pipeline, combinator children included, depth first."""
    for pass_ in passes:
        yield pass_
        if isinstance(pass_, Repeat):
            yield from _nested(pass_.passes)
        elif isinstance(pass_, DepthGuard):
            yield pass_.inner


def contains_pass(passes: Sequence[Pass], pass_type: type) -> bool:
    """True when any pass — including combinator children — is a ``pass_type``."""
    return any(isinstance(pass_, pass_type) for pass_ in _nested(passes))


# ----------------------------------------------------------------------
# flow scripts
# ----------------------------------------------------------------------
_STRUCTURAL_STEPS = {
    "sweep": SweepPass,
    "balance": BalancePass,
    "baseline": SizeBaselinePass,
}
#: atom alphabet — shared with the cost-model registry, so every registered
#: model name tokenises as a flow step.
_NAME_CHARS = NAME_CHARS


class _FlowParser:
    """Recursive-descent parser for the flow-script grammar (module docs)."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> None:
        raise ValueError(f"flow script: {message} "
                         f"(at position {self.pos} of {self.text!r})")

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> None:
        if self.peek() != char:
            self.fail(f"expected {char!r}")
        self.pos += 1

    def name(self) -> str:
        self._skip_space()
        start = self.pos
        while self.pos < len(self.text) and \
                self.text[self.pos].lower() in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            self.fail("expected a step name")
        return self.text[start:self.pos].lower()

    def number(self) -> int:
        self._skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        return int(self.text[start:self.pos])

    def steps(self) -> List[Pass]:
        parsed = [self.step()]
        while self.peek() == ",":
            self.take(",")
            parsed.append(self.step())
        return parsed

    def step(self) -> Pass:
        name = self.name()
        if name == "repeat":
            iterations = 8
            if self.peek() == ":":
                self.take(":")
                iterations = self.number()
                if iterations < 1:
                    self.fail("repeat count must be at least 1")
            self.take("(")
            body = self.steps()
            self.take(")")
            return Repeat(body, max_iterations=iterations)
        if name == "guard":
            self.take("(")
            inner = self.step()
            self.take(")")
            if not isinstance(inner, RewritePass):
                self.fail("guard(...) wraps a rewrite step such as mc*")
            return DepthGuard(inner)
        if name in _STRUCTURAL_STEPS:
            if self.peek() == "*":
                self.fail(f"{name} does not take rounds "
                          "(* applies to rewrite steps)")
            return _STRUCTURAL_STEPS[name]()
        models = registered_cost_models()
        if name in models:
            max_rounds: Optional[int] = 1
            if self.peek() == "*":
                self.take("*")
                max_rounds = None
                if self.peek().isdigit():
                    max_rounds = self.number()
                    if max_rounds < 1:
                        self.fail("round cap must be at least 1")
            return RewritePass(name, max_rounds=max_rounds)
        self.fail(f"unknown step {name!r} (pass atoms: "
                  f"{', '.join(sorted(_STRUCTURAL_STEPS))}; "
                  f"registered cost models: {', '.join(sorted(models))}; "
                  "combinators: repeat(...), guard(...))")
        raise AssertionError("unreachable")

    def parse(self) -> List[Pass]:
        if not self.text.strip():
            self.fail("empty script")
        parsed = self.steps()
        if self.peek():
            self.fail(f"unexpected {self.peek()!r}")
        return parsed


def parse_flow(script: str) -> List[Pass]:
    """Compose a pipeline from a flow script (grammar in the module docs).

    Examples::

        parse_flow("mc,mc*")                               # the paper flow
        parse_flow("balance,mc*,mc-depth*")                # one depth sweep
        parse_flow("repeat:8(balance,guard(mc*),mc-depth*)")  # the depth flow

    Rewrite atoms resolve against the cost-model registry, so a freshly
    registered model (``register_cost_model(GarbledCircuitCost())``) is a
    flow atom immediately.  Raises :class:`ValueError` with a
    position-annotated message on errors; unknown atoms list the structural
    steps and every registered cost model.
    """
    return _FlowParser(script).parse()


def _step_script(pass_: Pass) -> str:
    if isinstance(pass_, Repeat):
        return (f"repeat:{pass_.max_iterations}"
                f"({flow_script(pass_.passes)})")
    if isinstance(pass_, DepthGuard):
        return f"guard({_step_script(pass_.inner)})"
    if isinstance(pass_, RewritePass):
        if pass_.objective is None:
            raise ValueError(
                f"cannot serialise rewrite pass {pass_.name!r}: it inherits "
                "its cost model from the context parameters, which a flow "
                "script cannot express")
        atom = cost_model(pass_.objective).name
        if pass_.max_rounds == 1:
            return atom
        if pass_.max_rounds is None:
            return atom + "*"
        return f"{atom}*{pass_.max_rounds}"
    for name, step_type in _STRUCTURAL_STEPS.items():
        if isinstance(pass_, step_type):
            return name
    raise ValueError(f"cannot serialise pass {type(pass_).__name__} "
                     "to a flow script")


def flow_script(passes: Sequence[Pass]) -> str:
    """Serialise a pipeline back to flow-script text (:func:`parse_flow`'s
    inverse).

    Every pipeline the engine builds — parsed scripts and the canonical
    ``standard_flow`` alike — round-trips; the engine uses this to report
    the *resolved* flow in its JSON payload even when no ``--flow`` was
    given.  Structural steps serialise by name (constructor arguments such
    as a custom baseline round cap are not part of the grammar and are
    dropped); pipelines containing passes outside the grammar raise
    :class:`ValueError`.
    """
    return ",".join(_step_script(pass_) for pass_ in passes)

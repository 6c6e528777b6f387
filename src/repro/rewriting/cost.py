"""Pluggable cost models: candidate pricing, veto and convergence rules.

The paper optimises XAGs for multiplicative complexity because AND gates
are what MPC/FHE/SHE deployments pay for — but real deployments price
circuits differently: garbled-circuit communication counts ANDs only
(free-XOR), BGV/BFV noise budgets weight multiplicative depth times AND
width, LowMC-style designs trade AND-depth products.  Earlier versions of
this repo hard-coded three such prices as ``objective`` string branches
inside :class:`~repro.rewriting.rewrite.CutRewriter`, the pass pipeline and
the engine; this module lifts them into one protocol so a new deployment
scenario is a ~100-line plugin instead of a fork of the rewriter.

A :class:`CostModel` owns four decisions:

* **pricing** — :meth:`CostModel.key` maps a scored candidate's gain vector
  ``(gain_ands, gain_gates, gain_depth)`` to a lexicographic sort key; the
  rewriter keeps the candidate with the greatest key per node.
* **veto** — :meth:`CostModel.acceptable` refuses candidates outright.
  This is where mc-depth's hard no-deepening rule lives: the estimated
  root-level gain is computed against the levels of
  :class:`~repro.xag.levels.LevelTracker` and any candidate with
  ``gain_depth < 0`` is rejected, so no node level — hence no critical
  AND-level — can ever increase.  :attr:`CostModel.min_and_gain` is the
  smallest AND gain the veto can ever accept; the rewriter uses it to
  skip, *before* classification and recipe lookup, every cut whose MFFC
  AND count minus the cut function's multiplicative-complexity lower
  bound (:func:`repro.mc.bounds.lower_bound`) falls short of it, and
  every cut whose best case (gains from the lower bounds) the model would
  refuse or rank below the root's incumbent.  Only candidates that would
  be refused or lose anyway are skipped, so pruning never changes a
  selection.
* **convergence** — :meth:`CostModel.made_progress` decides whether a
  completed round improved the model's cost; convergence loops and
  ``Repeat`` fixpoints consult it instead of comparing AND counts directly.
* **reporting** — :meth:`CostModel.metric` reduces ``(ands, xors, depth)``
  to the scalar the batch report and benchmark tables print, labelled
  :attr:`CostModel.metric_name`.

Models are **registered by name** (:func:`register_cost_model`) and resolved
with :func:`cost_model`; every registered name is automatically a flow-script
atom (``fhe*`` works exactly like ``mc*``) and a valid ``--cost`` argument of
the engine.  The three built-in objectives are plain registered instances of
this protocol, with bit-exact parity to their pre-protocol behaviour pinned
by the EPFL control-group goldens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (rewrite imports us)
    from repro.rewriting.rewrite import Candidate, RoundStats

#: characters a registered model name may consist of — the flow-script
#: grammar tokenises atoms over exactly this alphabet, so any registered
#: name parses as a flow step.
NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")

#: names the flow-script grammar claims for structural steps and
#: combinators; a cost model cannot shadow them.
RESERVED_NAMES = frozenset({"sweep", "balance", "baseline", "repeat", "guard"})


class CostModel:
    """Pricing, veto, convergence and reporting of one rewriting objective.

    Subclasses override the four hook methods below and set the class
    attributes; instances are stateless (one registered instance serves
    every rewriter, across threads and shard workers).
    """

    #: registry key; also the flow-script atom and the ``--cost`` argument.
    name: str = "abstract"
    #: one-line summary shown by ``--help`` style listings.
    description: str = ""
    #: True when pricing needs the AND-levels: the rewriter
    #: binds a :class:`~repro.xag.levels.LevelTracker`, prices
    #: ``gain_depth`` per candidate and records round depths.
    depth_aware: bool = False
    #: label of the scalar :meth:`metric` in reports and benchmark tables.
    metric_name: str = "cost"
    #: examine cut cones without interior AND gates.  AND-free cones have
    #: nothing to offer an AND-count objective (XOR gates are
    #: depth-transparent too), so only gate-count models pay for them.
    examine_and_free_cones: bool = False
    #: the smallest ``gain_ands`` :meth:`acceptable` can ever accept.
    #:
    #: ``None`` means no such floor exists — the model may accept AND
    #: regressions — and disables pruning.  With a floor ``g`` the rewriter
    #: drops, *before* a cut's MFFC walk and plan lookup, every cut whose
    #: root's MFFC AND count ``m`` cannot reach it: ``m - LB(f) < g`` for
    #: the multiplicative-complexity lower bound ``LB`` of the cut function
    #: (every plan needs at least ``LB`` ANDs).  A floor that is too high
    #: silently loses rewrites; one that is too low only prunes less.
    #:
    #: A model that states a floor also promises that :meth:`acceptable`
    #: refuses every ``gain_ands`` below it, that :meth:`acceptable` and
    #: :meth:`key` read only the candidate's gains (``gain_ands``,
    #: ``gain_gates``, ``gain_depth``) and ``root_level``, and that both are
    #: monotone in the gains: raising any gain never turns an accepted
    #: candidate down nor lowers its key.  The rewriter relies on it to
    #: judge a cut's best case — gains from the lower bounds, with no cut or
    #: plan attached — and looks the plan up only if that best case is
    #: accepted and its key strictly beats the root's incumbent.
    min_and_gain: Optional[int] = None

    # -- candidate-level hooks ----------------------------------------
    def key(self, candidate: "Candidate") -> Tuple[int, ...]:
        """Lexicographic sort key of ``candidate`` (greater wins)."""
        raise NotImplementedError

    def acceptable(self, candidate: "Candidate") -> bool:
        """Veto rule: False refuses ``candidate`` regardless of its key."""
        raise NotImplementedError

    # -- round / report hooks -----------------------------------------
    def made_progress(self, stats: "RoundStats") -> bool:
        """True when the completed round improved this model's cost."""
        raise NotImplementedError

    def metric(self, ands: int, xors: int, depth: int) -> int:
        """The scalar cost of a network with the given counts and depth."""
        raise NotImplementedError

    def within_budget(self, depth: int) -> Optional[bool]:
        """Whether ``depth`` respects the model's budget (``None`` = no cap)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CostModel {self.name!r}>"


class McCost(CostModel):
    """The paper's objective: multiplicative complexity (AND count)."""

    name = "mc"
    description = "AND count (the paper's multiplicative-complexity objective)"
    metric_name = "ANDs"
    min_and_gain = 1

    def key(self, candidate: "Candidate") -> Tuple[int, ...]:
        return (candidate.gain_ands, candidate.gain_gates)

    def acceptable(self, candidate: "Candidate") -> bool:
        return candidate.gain_ands > 0

    def made_progress(self, stats: "RoundStats") -> bool:
        return stats.ands_after < stats.ands_before

    def metric(self, ands: int, xors: int, depth: int) -> int:
        return ands


class SizeCost(CostModel):
    """Unit-cost total-gate objective (the generic size baseline)."""

    name = "size"
    description = "total gate count (unit-cost size baseline)"
    metric_name = "gates"
    #: AND-free cones still hold XOR savings for a gate-count objective.
    examine_and_free_cones = True

    def key(self, candidate: "Candidate") -> Tuple[int, ...]:
        return (candidate.gain_gates, candidate.gain_ands)

    def acceptable(self, candidate: "Candidate") -> bool:
        # never allow AND regressions beyond what the gate gain justifies
        return candidate.gain_gates > 0

    def made_progress(self, stats: "RoundStats") -> bool:
        return (stats.ands_after + stats.xors_after
                < stats.ands_before + stats.xors_before)

    def metric(self, ands: int, xors: int, depth: int) -> int:
        return ands + xors


class McDepthCost(CostModel):
    """AND count first, then root AND-level, with a hard no-deepening veto.

    Since the per-candidate level estimate upper-bounds the built level and
    leaf levels only ever decrease during a round, rejecting every candidate
    with ``gain_depth < 0`` guarantees that no node level — and in
    particular the critical AND-level (multiplicative depth) — can increase.
    """

    name = "mc-depth"
    description = "AND count, then multiplicative depth (never deepens)"
    metric_name = "ANDs"
    depth_aware = True
    #: zero-AND-gain candidates may still lower the root's AND-level
    min_and_gain = 0

    def key(self, candidate: "Candidate") -> Tuple[int, ...]:
        return (candidate.gain_ands, candidate.gain_depth,
                candidate.gain_gates)

    def acceptable(self, candidate: "Candidate") -> bool:
        if candidate.gain_depth < 0 or candidate.gain_ands < 0:
            return False
        return candidate.gain_ands > 0 or candidate.gain_depth > 0

    def made_progress(self, stats: "RoundStats") -> bool:
        # depth-only rounds count: convergence must not discard them
        return (stats.ands_after < stats.ands_before
                or stats.depth_after < stats.depth_before)

    def metric(self, ands: int, xors: int, depth: int) -> int:
        return ands


class FheNoiseBudgetCost(CostModel):
    """FHE noise-budget objective: weighted depth × AND-width, depth first.

    Levelled BGV/BFV-style schemes provision ciphertext modulus per
    multiplicative *level*, so a unit of depth costs roughly an order of
    magnitude more noise headroom than a unit of AND width; the scalar
    reported is ``depth_weight * depth + ands`` and candidates are priced
    depth-first — the lexicographic mirror image of ``mc-depth``.

    The model inherits mc-depth's monotonicity contract (neither the AND
    count nor any node's AND-level may increase), and adds an optional
    **level cap**: while a candidate's estimated root level sits above
    ``level_cap``, only strictly depth-reducing rewrites are accepted there
    — the optimiser spends its moves where the budget is violated.
    :meth:`within_budget` reports whether a final depth fits the cap.
    """

    name = "fhe"
    description = ("FHE noise budget: weighted multiplicative depth x AND "
                   "width, depth first")
    metric_name = "noise"
    depth_aware = True
    min_and_gain = 0

    def __init__(self, depth_weight: int = 8,
                 level_cap: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        if depth_weight < 1:
            raise ValueError("depth_weight must be at least 1")
        if level_cap is not None and level_cap < 0:
            raise ValueError("level_cap must be non-negative")
        self.depth_weight = depth_weight
        self.level_cap = level_cap
        if name is not None:
            self.name = name

    def key(self, candidate: "Candidate") -> Tuple[int, ...]:
        return (candidate.gain_depth, candidate.gain_ands,
                candidate.gain_gates)

    def acceptable(self, candidate: "Candidate") -> bool:
        # keep mc-depth's monotonicity: noise heuristics must not trade a
        # depth unit for an AND regression (or vice versa) — both axes of
        # the budget only ever shrink, which is also what the differential
        # harness and the per-round A/B cross-check assert.
        if candidate.gain_depth < 0 or candidate.gain_ands < 0:
            return False
        if self.level_cap is not None and \
                candidate.root_level - candidate.gain_depth > self.level_cap:
            # this root still busts the level budget: only strictly
            # depth-reducing rewrites count as progress there
            return candidate.gain_depth > 0
        return candidate.gain_depth > 0 or candidate.gain_ands > 0

    def made_progress(self, stats: "RoundStats") -> bool:
        before = self.metric(stats.ands_before, stats.xors_before,
                             stats.depth_before)
        after = self.metric(stats.ands_after, stats.xors_after,
                            stats.depth_after)
        return after < before

    def metric(self, ands: int, xors: int, depth: int) -> int:
        return self.depth_weight * depth + ands

    def within_budget(self, depth: int) -> Optional[bool]:
        if self.level_cap is None:
            return None
        return depth <= self.level_cap


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, CostModel] = {}


def register_cost_model(model: CostModel) -> CostModel:
    """Register ``model`` under its :attr:`~CostModel.name`; returns it.

    The name becomes a flow-script atom and a ``--cost`` choice, so it must
    fit the grammar's atom alphabet and must not shadow a structural step or
    combinator.  Duplicate registrations are rejected — replace a model by
    :func:`unregister_cost_model` first (tests and notebooks do).
    """
    name = model.name
    if not name or name[0] not in "abcdefghijklmnopqrstuvwxyz" or \
            not set(name) <= NAME_CHARS:
        raise ValueError(
            f"cost model name {name!r} is not a valid flow atom "
            "(lowercase letters, digits, '-' and '_', starting with a letter)")
    if name in RESERVED_NAMES:
        raise ValueError(f"cost model name {name!r} is reserved by the "
                         f"flow-script grammar ({', '.join(sorted(RESERVED_NAMES))})")
    if name in _REGISTRY:
        raise ValueError(f"cost model {name!r} is already registered")
    _REGISTRY[name] = model
    return model


def unregister_cost_model(name: str) -> None:
    """Remove a registered model (no-op when absent)."""
    _REGISTRY.pop(name, None)


def registered_cost_models() -> Dict[str, CostModel]:
    """Snapshot of the registry: ``{name: model}`` in registration order."""
    return dict(_REGISTRY)


def cost_model(objective: Union[str, CostModel]) -> CostModel:
    """Resolve an objective — a registered name or a model instance.

    Instances pass through unchanged (an unregistered custom model can be
    injected directly via ``RewriteParams.objective``); names resolve
    against the registry.  Registered models are singletons, so two
    resolutions of the same name return the identical object.
    """
    if isinstance(objective, CostModel):
        return objective
    model = _REGISTRY.get(objective)
    if model is None:
        raise ValueError(
            f"unknown cost model {objective!r} "
            f"(registered: {', '.join(sorted(_REGISTRY))})")
    return model


#: the built-in objectives, registered at import time.
MC = register_cost_model(McCost())
SIZE = register_cost_model(SizeCost())
MC_DEPTH = register_cost_model(McDepthCost())
FHE = register_cost_model(FheNoiseBudgetCost())

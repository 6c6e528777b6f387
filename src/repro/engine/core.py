"""Batch runner: suites → circuits → pass pipeline, with shared caches.

The engine exists so that running the paper's experiment over *many*
workloads amortises every piece of reusable state:

* one :class:`repro.mc.database.McDatabase` — representatives synthesised for
  circuit 1 are free for circuit 2;
* one :class:`repro.cuts.cache.CutFunctionCache` — implementation plans are
  keyed by truth table and are network independent, so recurring cut
  functions (carry chains, S-box slices) resolve with a single dict hit
  across the whole batch.

Per-network state (cut sets, levels, the verification simulator) lives in
each circuit's own :class:`repro.rewriting.pipeline.OptimizationContext`
and is released when its pipeline ends.

Two scaling axes extend the amortisation beyond a single process:

* **warm starts** — the database's recipes, the classification results and
  the plan keys persist as a versioned JSON bundle
  (``EngineConfig.warm_start`` / ``EngineConfig.persist``, CLI ``--db``),
  so nothing is ever classified or synthesised twice *across invocations*
  either.  A bundle carries no finished circuits: every circuit runs its
  pipeline, warm or cold;
* **the worker pool** — ``EngineConfig.jobs`` (``0`` = one worker per CPU)
  runs the selected circuits over a persistent pool of worker processes fed
  from a shared longest-first work queue, with newly learnt cache entries
  streamed between workers as content-addressed deltas while the batch is
  still running (see :mod:`repro.engine.parallel`).  The merged report is
  registry-ordered and — apart from timings and the per-worker statistics —
  identical to a sequential run, as is the bundle a ``persist`` writes.

Every stage is timed separately (build, one round, convergence,
verification) so regressions in any layer show up directly in the report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import kernels
from repro.circuits.benchmark_case import BenchmarkCase
from repro.circuits.corpus import corpus_benchmarks
from repro.circuits.crypto.registry import mpc_benchmarks
from repro.circuits.epfl import epfl_benchmarks
from repro.circuits.external import external_corpus
from repro.circuits.registry import BenchmarkRegistry
from repro.cuts.cache import CutFunctionCache
from repro.mc.database import McDatabase
from repro.rewriting.cost import CostModel, cost_model
from repro.rewriting.pipeline import (FlowSummary, Pass, PipelineResult,
                                      SizeBaselinePass, contains_pass,
                                      flow_script, parse_flow, run_pipeline,
                                      standard_flow)
from repro.rewriting.rewrite import RewriteParams, RoundStats

#: suite name → registry loader.
SUITES = {
    "epfl": epfl_benchmarks,
    "crypto": mpc_benchmarks,
    "corpus": corpus_benchmarks,
}


@dataclass
class EngineConfig:
    """Knobs of one batch run (defaults follow the paper's §4.1 setup)."""

    #: suites to load: any subset of ``{"epfl", "crypto", "corpus"}``
    #: (or ``"all"``).
    suites: Tuple[str, ...] = ("epfl",)
    #: directories of Bristol/BLIF/JSON netlists registered as extra cases
    #: (see :func:`repro.circuits.external.external_corpus`).
    corpus_dirs: Tuple[str, ...] = ()
    #: restrict to these circuit names (``None`` = every circuit).
    circuits: Optional[Sequence[str]] = None
    #: restrict to these registry groups ("arithmetic", "control", "mpc").
    groups: Optional[Sequence[str]] = None
    cut_size: int = 6
    cut_limit: int = 12
    #: rewriting cost model: any registered name — "mc" (the paper's
    #: objective), "size" (total gates), "mc-depth" (AND count, then
    #: multiplicative depth), "fhe" (weighted noise budget, depth first) or
    #: a plugin registered via
    #: :func:`repro.rewriting.cost.register_cost_model`.  Depth-aware models
    #: run the balance → guarded-rewrite depth flow.
    objective: Union[str, CostModel] = "mc"
    #: custom flow script (see :func:`repro.rewriting.pipeline.parse_flow`);
    #: overrides the canonical pipeline that ``objective`` /
    #: ``size_baseline`` / ``max_rounds`` would select — round caps then
    #: come from the script's own ``*N`` suffixes.
    flow: Optional[str] = None
    #: cap on rewriting rounds (``None`` = run to convergence).  For the
    #: "mc"/"size" pipelines this bounds the total rounds per circuit; for
    #: "mc-depth" it bounds the rounds *per stage and iteration* of the
    #: depth flow (see :func:`repro.rewriting.pipeline.standard_flow`).
    max_rounds: Optional[int] = 2
    #: run the generic size-optimisation baseline before MC rewriting.
    size_baseline: bool = False
    #: build paper-scale netlists instead of the reduced defaults.
    full_scale: bool = False
    #: verify equivalence for networks up to this many gates (0 disables).
    verify_limit: int = 20000
    #: worker processes: the cases are dispatched longest-first over a
    #: persistent pool (see :mod:`repro.engine.parallel`) and the results
    #: merged back in registry order.  1 = run in-process, sequentially;
    #: 0 = auto (one worker per CPU).
    jobs: int = 1
    #: warm-start bundle to load before the run (ignored when missing).
    warm_start: Optional[Union[str, Path]] = None
    #: bundle path to write after the run (recipes + classifications + plans).
    persist: Optional[Union[str, Path]] = None
    #: kernel backend for batched cut-cone simulation, the one kernel numpy
    #: still serves; candidate selection no longer uses it (cut tables come
    #: from the cut merge, and truth tables, classification and
    #: verification always run on the pure-Python reference): "auto" (numpy
    #: when importable, else python), "python" or "numpy" (a hard error
    #: when numpy is not importable).  Both backends produce bit-identical
    #: results.
    backend: str = "auto"


@dataclass
class CircuitReport(FlowSummary):
    """Everything measured for one circuit of the batch."""

    name: str
    group: str
    num_pis: int = 0
    num_pos: int = 0
    ands_before: int = 0
    xors_before: int = 0
    ands_after: int = 0
    xors_after: int = 0
    #: multiplicative depth of the initial / final network.
    depth_before: int = 0
    depth_after: int = 0
    #: name of the cost model that priced the run, and its scalar metric
    #: (:meth:`repro.rewriting.cost.CostModel.metric`) before / after.
    cost_model: str = "mc"
    cost_before: int = 0
    cost_after: int = 0
    #: whether the final depth fits the model's level budget (``None`` when
    #: the model declares no cap).
    within_budget: Optional[bool] = None
    rounds: List[RoundStats] = field(default_factory=list)
    build_seconds: float = 0.0
    baseline_seconds: float = 0.0
    one_round_seconds: float = 0.0
    convergence_seconds: float = 0.0
    #: wall clock of the tree-balancing stages (mc-depth objective only).
    balance_seconds: float = 0.0
    verified: Optional[bool] = None
    error: Optional[str] = None

    @property
    def verify_seconds(self) -> float:
        """Total time spent in equivalence checking across all rounds."""
        return sum(stats.verify_seconds for stats in self.rounds)

    @property
    def total_seconds(self) -> float:
        """Build plus baseline plus optimisation time."""
        return self.build_seconds + self.baseline_seconds + self.convergence_seconds

    def stage_timings(self) -> Dict[str, float]:
        """Per-stage wall-clock seconds (verification overlaps the rounds).

        ``select`` and ``apply`` split the round time into Phase-1 candidate
        selection and Phase-2 in-place application.
        """
        return {
            "build": self.build_seconds,
            "baseline": self.baseline_seconds,
            "one_round": self.one_round_seconds,
            "convergence": self.convergence_seconds - self.one_round_seconds,
            "verify": self.verify_seconds,
            "select": sum(stats.select_seconds for stats in self.rounds),
            "apply": sum(stats.apply_seconds for stats in self.rounds),
            "balance": self.balance_seconds,
        }


@dataclass
class BatchReport:
    """Result of :func:`run_batch`."""

    config: EngineConfig
    reports: List[CircuitReport] = field(default_factory=list)
    database_stats: Dict[str, float] = field(default_factory=dict)
    cut_cache_stats: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: requested job count after auto-resolution (``jobs=0`` reports the CPU
    #: count it resolved to); the pool may use fewer — see :attr:`workers`.
    jobs: int = 1
    #: worker processes *actually* spawned (1 = sequential in-process run;
    #: clamped to the number of selected cases), mirroring the
    #: resolved-backend convention of :attr:`backend`.
    workers: int = 1
    #: True when a warm-start bundle was found and loaded.
    warm_start_loaded: bool = False
    #: per-worker cache statistics of a sharded run (empty when jobs == 1).
    worker_stats: List[Dict[str, Dict[str, float]]] = field(default_factory=list)
    #: resolved kernel backend the batch actually ran with ("python" or
    #: "numpy" — never "auto").
    backend: str = "python"

    @property
    def succeeded(self) -> List[CircuitReport]:
        """Reports of circuits that completed without an error."""
        return [report for report in self.reports if report.error is None]

    @property
    def failed(self) -> List[CircuitReport]:
        """Reports of circuits that raised during build or optimisation."""
        return [report for report in self.reports if report.error is not None]

    def slowest_cases(self, count: int = 5) -> List[Tuple[str, float]]:
        """The ``count`` slowest circuits as ``(name, wall seconds)`` pairs.

        Wall time is the per-case total (build + baseline + optimisation),
        sorted descending with name tie-breaks — the observable the pool's
        longest-first scheduling is meant to optimise, surfaced in the JSON
        summary so scheduling quality can be checked from a report alone.
        """
        ordered = sorted(self.succeeded,
                         key=lambda report: (-report.total_seconds, report.name))
        return [(report.name, report.total_seconds)
                for report in ordered[:count]]

    def render(self) -> str:
        """Human-readable batch table plus cache summary.

        Cost models whose metric is not the plain AND count (size, fhe, …)
        contribute an extra before/after column pair labelled with their
        :attr:`~repro.rewriting.cost.CostModel.metric_name`; a final cost
        marked ``!`` busts the model's level budget.
        """
        model = cost_model(self.config.objective)
        cost_columns = model.metric_name != "ANDs"
        cost_header = (f" {model.metric_name + '0':>8} {model.metric_name:>8}"
                       if cost_columns else "")
        header = (f"{'Name':<20} {'Grp':<6} {'In':>5} {'Out':>5} | "
                  f"{'AND0':>7} {'AND':>7} {'impr':>6} "
                  f"{'D0':>4} {'D':>4} {'rnds':>5}{cost_header} | "
                  f"{'build':>7} {'1rnd':>7} {'conv':>7} {'verify':>7} "
                  f"{'wall':>7} {'ok':>3}")
        lines = [header, "-" * len(header)]
        for report in self.reports:
            if report.error is not None:
                lines.append(f"{report.name:<20} {report.group:<6} ERROR: {report.error}")
                continue
            stages = report.stage_timings()
            verified = {True: "yes", False: "NO", None: "-"}[report.verified]
            cost_cells = ""
            if cost_columns:
                final_cost = (f"{report.cost_after}!"
                              if report.within_budget is False
                              else f"{report.cost_after}")
                cost_cells = f" {report.cost_before:>8} {final_cost:>8}"
            lines.append(
                f"{report.name:<20} {report.group:<6} {report.num_pis:>5} {report.num_pos:>5} | "
                f"{report.ands_before:>7} {report.ands_after:>7} "
                f"{round(100 * report.and_improvement):>5}% "
                f"{report.depth_before:>4} {report.depth_after:>4} "
                f"{len(report.rounds):>5}{cost_cells} | "
                f"{report.build_seconds:>7.2f} {stages['one_round']:>7.2f} "
                f"{stages['convergence']:>7.2f} {stages['verify']:>7.2f} "
                f"{report.total_seconds:>7.2f} {verified:>3}")
        lines.append("-" * len(header))
        # NOTE: the classification hit rate is deliberately absent here — the
        # plan memo shares the (table, num_vars) key and absorbs every repeat
        # before the classification cache could hit, so that rate is
        # structurally 0 in batch runs and reporting it was misleading.
        plan_hits = self.cut_cache_stats.get("plan_hits", 0)
        plan_misses = self.cut_cache_stats.get("plan_misses", 0)
        plan_total = plan_hits + plan_misses
        plan_rate = plan_hits / plan_total if plan_total else 0.0
        plans_pruned = self.cut_cache_stats.get("plans_pruned", 0)
        # report the workers *actually* spawned, not the configured jobs —
        # a clamped or auto-resolved pool must not misreport its width
        jobs_note = f" [{self.workers} workers]" if self.workers > 1 else ""
        warm_note = " [warm start]" if self.warm_start_loaded else ""
        mode_note = f" [{model.name}]" if model.name != "mc" else ""
        if self.config.flow is not None:
            mode_note += f" [flow: {resolved_flow(self.config)}]"
        mode_note += f" [{self.backend} kernels]"
        lines.append(
            f"{len(self.succeeded)}/{len(self.reports)} circuits in "
            f"{self.total_seconds:.2f}s{jobs_note}{warm_note}{mode_note} | plan cache "
            f"{plan_hits:.0f} hits / {plan_misses:.0f} misses "
            f"({round(100 * plan_rate)}% hit rate), {plans_pruned:.0f} pruned | db "
            f"{self.database_stats.get('stored_recipes', 0):.0f} recipes / "
            f"{self.database_stats.get('synthesis_calls', 0):.0f} synthesis calls")
        return "\n".join(lines)


def available_cases(suites: Sequence[str] = ("epfl", "crypto"),
                    corpus_dirs: Sequence[str] = ()) -> List[BenchmarkCase]:
    """All benchmark cases of the requested suites, in registry order.

    Goes through a :class:`repro.circuits.registry.BenchmarkRegistry`, so a
    name collision between suites (or with an external corpus directory)
    raises a descriptive error instead of silently shadowing a case.
    """
    registry = BenchmarkRegistry()
    for suite in suites:
        if suite == "all":
            return available_cases(tuple(SUITES), corpus_dirs)
        loader = SUITES.get(suite)
        if loader is None:
            raise ValueError(f"unknown suite {suite!r} (available: {sorted(SUITES)})")
        registry.extend(loader())
    for directory in corpus_dirs:
        registry.extend(external_corpus(directory))
    return registry.cases()


def select_cases(config: EngineConfig) -> List[BenchmarkCase]:
    """Resolve the configuration's suite/group/name filters to cases."""
    cases = available_cases(config.suites, config.corpus_dirs)
    if config.groups is not None:
        wanted_groups = set(config.groups)
        cases = [case for case in cases if case.group in wanted_groups]
    if config.circuits is not None:
        by_name = {case.name: case for case in cases}
        missing = [name for name in config.circuits if name not in by_name]
        if missing:
            raise ValueError(f"unknown circuits {missing} "
                             f"(available: {sorted(by_name)})")
        cases = [by_name[name] for name in config.circuits]
    return cases


def build_pipeline(config: EngineConfig) -> List[Pass]:
    """Resolve the configuration to a pass pipeline.

    A ``config.flow`` script wins; otherwise the canonical pipeline of the
    objective is built (one round → convergence for "mc"/"size", the
    balance → guarded-mc → mc-depth repeat for "mc-depth").
    ``size_baseline`` is honoured either way: a custom flow without an
    explicit ``baseline`` step gets one prepended.
    """
    if config.flow is not None:
        passes = parse_flow(config.flow)
        if config.size_baseline and \
                not contains_pass(passes, SizeBaselinePass):
            passes.insert(0, SizeBaselinePass())
        return passes
    return standard_flow(config.objective, size_baseline=config.size_baseline,
                         max_rounds=config.max_rounds)


def resolved_flow(config: EngineConfig) -> str:
    """The flow script the configuration actually runs.

    :func:`build_pipeline`'s pipeline serialised back to a script, so
    reports state what ran instead of ``null``: a custom ``config.flow``
    comes back in canonical spelling, with any ``baseline`` step that
    ``size_baseline`` injects.
    """
    return flow_script(build_pipeline(config))


def run_circuit(case: BenchmarkCase, config: EngineConfig,
                database: Optional[McDatabase] = None,
                cut_cache: Optional[CutFunctionCache] = None) -> CircuitReport:
    """Run the configured pipeline on one benchmark case, timing every stage.

    One generic path for every flow: the pipeline (canonical per objective,
    or a custom ``config.flow`` script) executes over one shared
    optimisation context and the report is filled from the uniform
    :class:`~repro.rewriting.pipeline.PassResult` tree — the depth flow is
    no longer a fork re-plumbing every field.
    """
    report = CircuitReport(name=case.name, group=case.group)
    cut_cache = CutFunctionCache.ensure(cut_cache, database)
    try:
        model = cost_model(config.objective)
        report.cost_model = model.name
        passes = build_pipeline(config)
        build_start = time.perf_counter()
        xag = case.build(full_scale=config.full_scale)
        report.build_seconds = time.perf_counter() - build_start

        report.num_pis = xag.num_pis
        report.num_pos = xag.num_pos

        verify = 0 < (xag.num_ands + xag.num_xors) <= config.verify_limit
        params = RewriteParams(cut_size=config.cut_size, cut_limit=config.cut_limit,
                               objective=config.objective, verify=verify)
        result: PipelineResult = run_pipeline(
            xag, passes, database=database, params=params,
            cut_cache=cut_cache)

        report.ands_before = result.initial.num_ands
        report.xors_before = result.initial.num_xors
        report.ands_after = result.final.num_ands
        report.xors_after = result.final.num_xors
        report.depth_before = result.depth_before
        report.depth_after = result.depth_after
        report.cost_before = model.metric(report.ands_before,
                                          report.xors_before,
                                          report.depth_before)
        report.cost_after = model.metric(report.ands_after,
                                         report.xors_after,
                                         report.depth_after)
        report.within_budget = model.within_budget(report.depth_after)
        report.rounds = result.rounds
        report.baseline_seconds = result.stage_seconds("baseline")
        report.balance_seconds = result.stage_seconds("balance")
        report.one_round_seconds = _one_round_seconds(result)
        report.convergence_seconds = result.runtime_seconds - report.baseline_seconds
        if verify:
            # None (not True) when the flow produced zero verified rounds —
            # an unchecked run must not read as a passed check.
            report.verified = result.verified
    except Exception as exc:  # noqa: BLE001 - batch runs must survive one bad case
        report.error = f"{type(exc).__name__}: {exc}"
    return report


def _one_round_seconds(result: PipelineResult) -> float:
    """Wall clock of the "one round" stage of a pipeline.

    The canonical paper pipeline has an explicitly named one-round pass;
    other flows report their first executed *rewriting* round —
    size-baseline rounds are excluded (the baseline stage is timed
    separately).
    """
    one_round = result.one_round_pass
    if one_round is not None:
        return one_round.runtime_seconds
    for pass_result in result.passes:
        if pass_result.kind == "baseline":
            continue
        if pass_result.rounds:
            return pass_result.rounds[0].runtime_seconds
    return 0.0


# ----------------------------------------------------------------------
# warm-start persistence
# ----------------------------------------------------------------------
def load_warm_start(path: Union[str, Path], database: McDatabase,
                    cut_cache: CutFunctionCache) -> bool:
    """Load a warm-start bundle into the shared store, if ``path`` exists.

    Restores the database's recipes and classification results, then
    re-materialises the persisted cut-function plans on top of them (no
    classification or synthesis is repeated, and the cache statistics are
    untouched).  The ``cones`` and ``results`` sections written by older
    versions are ignored.  Returns ``True`` when a bundle was found and
    loaded.
    """
    path = Path(path)
    if not path.exists():
        return False
    try:
        bundle = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid JSON bundle: {exc}") from exc
    database.install_bundle(bundle, origin=str(path))
    cut_cache.warm_start(bundle.get("plans", []), origin=str(path))
    return True


def persist_warm_start(path: Union[str, Path], database: McDatabase,
                       cut_cache: CutFunctionCache) -> None:
    """Write the shared store (including plan keys) as a warm-start bundle."""
    database.save(path, plan_keys=cut_cache.plan_keys())


# ----------------------------------------------------------------------
# parallel execution (the pool itself lives in repro.engine.parallel)
# ----------------------------------------------------------------------
#: Store sizes among the per-worker stats.  A pool does not add these up:
#: it reads them from the merged shared store, the state a ``persist``
#: writes.  ``stored_functions`` is left out on purpose: the cone-function
#: memo is per network and never merged, so a pool reports the sum of each
#: worker's memo for the network it ran last, where a sequential run
#: reports the memo of its last circuit.
_MERGED_STORE_SIZES = ("stored_recipes", "total_recipe_ands", "stored_plans")


def _sum_counters(sections: Sequence[Dict[str, float]],
                  merged: Dict[str, float]) -> Dict[str, float]:
    """Key-wise sum of per-worker stats dicts, with sizes and rates fixed up.

    Every key any worker reports adds up (integer counters stay integers),
    except the :data:`_MERGED_STORE_SIZES`, which are taken from ``merged``;
    each ``<name>_hit_rate`` is recomputed from the summed ``<name>_hits``
    and ``<name>_misses``.
    """
    totals: Dict[str, float] = {}
    for section in sections:
        for key, value in section.items():
            totals[key] = totals.get(key, 0) + value
    for key in totals:
        if key in _MERGED_STORE_SIZES:
            totals[key] = merged[key]
        elif key.endswith("_hit_rate"):
            stem = key[:-len("hit_rate")]
            hits, misses = totals[stem + "hits"], totals[stem + "misses"]
            totals[key] = hits / (hits + misses) if hits + misses else 0.0
    return totals


def _aggregate_worker_stats(batch: BatchReport, database: McDatabase,
                            cut_cache: CutFunctionCache) -> None:
    """Sum per-worker counters into the batch-level statistics.

    Every counter the workers report adds up across workers, so a pool run
    reports the same keys as a sequential one; the store sizes come from
    the merged shared store (see :data:`_MERGED_STORE_SIZES`), so the
    aggregate describes both the total work done and the state a
    ``persist`` would write.
    """
    merged = {**database.stats(), **cut_cache.stats()}
    batch.database_stats = _sum_counters(
        [worker["database"] for worker in batch.worker_stats], merged)
    batch.cut_cache_stats = _sum_counters(
        [worker["cut_cache"] for worker in batch.worker_stats], merged)


def run_batch(config: Optional[EngineConfig] = None,
              database: Optional[McDatabase] = None) -> BatchReport:
    """Run the configured suites with shared database and caches.

    With more than one worker (``config.jobs > 1``, or ``jobs=0`` resolving
    to several CPUs) the selected cases run over the persistent worker pool
    of :func:`repro.engine.parallel.run_pool_batch`; the merged report is
    registry-ordered and (apart from timings and the per-worker statistics)
    identical to a sequential run.  ``config.warm_start`` and
    ``config.persist`` bracket the run with bundle I/O so consecutive
    invocations never repeat classification or synthesis work.
    """
    from repro.engine import parallel

    config = config if config is not None else EngineConfig()
    if config.jobs < 0:
        raise ValueError(f"jobs must be a non-negative integer "
                         f"(got {config.jobs}; 0 means auto)")
    cost_model(config.objective)  # fail fast with the registry's message
    backend = kernels.resolve_backend(config.backend)  # fail fast here too
    if config.flow is not None:
        # fail fast on a bad script (per-circuit errors would repeat it)
        parse_flow(config.flow)
    database = database if database is not None else McDatabase()
    cut_cache = CutFunctionCache(database)
    batch = BatchReport(config=config, backend=backend)
    start = time.perf_counter()
    with kernels.use_backend(backend):
        if config.warm_start is not None:
            batch.warm_start_loaded = load_warm_start(
                config.warm_start, database, cut_cache)
        cases = select_cases(config)
        batch.jobs = parallel.resolve_jobs(config.jobs)
        batch.workers = min(batch.jobs, max(1, len(cases)))
        if batch.workers > 1:
            parallel.run_pool_batch(batch, cases, config, database, cut_cache,
                                    workers=batch.workers)
        else:
            for case in cases:
                batch.reports.append(
                    run_circuit(case, config, cut_cache=cut_cache))
            batch.database_stats = database.stats()
            batch.cut_cache_stats = cut_cache.stats()
    batch.total_seconds = time.perf_counter() - start
    if config.persist is not None:
        persist_warm_start(config.persist, database, cut_cache)
    return batch

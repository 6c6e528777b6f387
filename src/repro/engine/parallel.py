"""Persistent worker pool with streamed cache deltas.

This module is the engine's parallel-execution subsystem.  It replaces the
original one-shot ``multiprocessing.Pool.map`` over static round-robin
shards with two cooperating pieces:

* **a persistent worker pool fed from a shared work queue** —
  :func:`run_pool_batch` spawns one long-lived process per worker and hands
  out circuits one at a time, longest first (:func:`schedule_cases`).  Work
  stealing falls out of the shared queue: a worker that finishes a small
  adder immediately pulls the next-longest remaining case, so an md5-sized
  circuit can never straggle behind a queue of tiny ones the way a static
  shard could;

* **streaming cache deltas** — every shared cache layer is
  content-addressed (recipes by structural hash, classifications and plans
  by truth-table key), so merging is idempotent and order-independent.
  Each worker tracks what it has already streamed with a
  :class:`DeltaCursor` and pushes only *newly learnt* entries back with
  each finished case; the parent folds the delta into the shared store and
  forwards it to the other workers with their next case.  A representative
  synthesised by one worker is therefore available to every other worker
  within one case, instead of after the whole batch as with exit-time
  shard merging.

The determinism contract of the old sharding carries over: reports return
in registry order, per-circuit results are bit-identical to ``jobs=1``
(content-addressed caches only change *when* work happens, never what it
produces), and a ``persist`` after a pool run writes the same bundle a
sequential run would.

The start method is inherited from :mod:`multiprocessing` unless the
``REPRO_START_METHOD`` environment variable names one explicitly — the
parity tests pin ``spawn``, the strictest method (everything a worker
needs must pickle).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import traceback
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro import kernels
from repro.circuits.benchmark_case import BenchmarkCase
from repro.cuts.cache import CutFunctionCache
from repro.mc.database import BundleCursor, McDatabase
from repro.xag.bitsim import SimulationCache

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle guard)
    from repro.engine.core import BatchReport, CircuitReport, EngineConfig

#: environment variable naming the multiprocessing start method the pool
#: should use ("fork", "spawn", "forkserver"); empty/unset = the platform
#: default.
START_METHOD_ENV = "REPRO_START_METHOD"

#: estimate bonus that sorts registry-flagged slow cases to the front of
#: the queue even when no paper AND count is recorded for them.
_SLOW_CASE_BONUS = 1_000_000


def start_method() -> Optional[str]:
    """Start method requested via ``REPRO_START_METHOD`` (``None`` = default)."""
    value = os.environ.get(START_METHOD_ENV, "").strip()
    return value or None


def resolve_jobs(jobs: int) -> int:
    """Resolve the configured job count (0 = auto: one worker per CPU)."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (got {jobs}; 0 means auto)")
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    return jobs


# ----------------------------------------------------------------------
# longest-first scheduling
# ----------------------------------------------------------------------
def size_estimate(case: BenchmarkCase) -> int:
    """Scheduling weight of a case (bigger = dispatched earlier).

    The registry's paper AND count is the natural proxy for optimisation
    time; cases flagged ``slow`` (full-width hash compressions, AES key
    schedules) outrank everything else regardless.  Cases with no recorded
    numbers weigh 0 and keep their registry order at the queue tail.
    """
    estimate = 0
    if case.paper is not None and case.paper.initial_and:
        estimate = int(case.paper.initial_and)
    if case.slow:
        estimate += _SLOW_CASE_BONUS
    return estimate


def schedule_cases(cases: Sequence[BenchmarkCase]) -> List[Tuple[int, BenchmarkCase]]:
    """Longest-first dispatch order as ``(registry position, case)`` pairs.

    Positions travel with the cases so the merged report can be restored to
    registry order regardless of completion order.  Ties (including the
    no-estimate tail) break by registry position, keeping the order
    deterministic for any case mix.
    """
    indexed = list(enumerate(cases))
    indexed.sort(key=lambda pair: (-size_estimate(pair[1]), pair[0]))
    return indexed


# ----------------------------------------------------------------------
# streaming cache deltas
# ----------------------------------------------------------------------
def install_delta(delta: Dict, database: McDatabase,
                  cut_cache: CutFunctionCache) -> None:
    """Fold a delta bundle into a store (first write wins, like any merge).

    Deltas are ordinary (small) v3 warm-start bundles, so installation
    reuses the exact code paths of a bundle load; validation is skipped
    because deltas never leave the process tree that produced them.
    """
    database.install_bundle(delta, validate=False)
    cut_cache.warm_start(delta.get("plans", []))


class DeltaCursor:
    """Tracks which cache entries were already streamed out of a store.

    Construction marks everything currently present (the installed seed
    bundle) as known; each :meth:`collect` returns only entries learnt since
    the previous collect — recipes and classifications via
    :class:`repro.mc.database.BundleCursor`, plan keys via the cut cache's
    sorted accessor.  :meth:`advance` marks entries installed from *pulled*
    deltas as known without re-emitting them, so deltas never echo around
    the pool.
    """

    def __init__(self, database: McDatabase,
                 cut_cache: CutFunctionCache) -> None:
        self._bundle_cursor = BundleCursor(database)
        self._cut_cache = cut_cache
        self._plans: Set[Tuple[int, int]] = set(cut_cache.plan_keys())

    def advance(self) -> None:
        """Mark the stores' current contents as streamed, emitting nothing."""
        self._bundle_cursor.advance()
        self._plans.update(self._cut_cache.plan_keys())

    def collect(self) -> Optional[Dict]:
        """Delta bundle of everything learnt since the last collect.

        Returns ``None`` when nothing new was learnt (a pure cache-hit case
        ships no payload at all).
        """
        recipes, classifications = self._bundle_cursor.collect()
        plans = [key for key in self._cut_cache.plan_keys()
                 if key not in self._plans]
        self._plans.update(plans)
        if not (recipes or classifications or plans):
            return None
        return {
            "format": McDatabase.BUNDLE_FORMAT,
            "version": McDatabase.BUNDLE_VERSION,
            "recipes": recipes,
            "classifications": classifications,
            "plans": [[table, num_vars] for table, num_vars in plans],
        }


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """One pool worker's long-lived execution state.

    Owns the worker's cache trio for the whole pool run (so learnt state
    accumulates across the cases the worker is handed), installs the seed
    bundle exactly once at construction, and exposes the pull / run / push
    cycle the message loop drives.  Kept separate from the process plumbing
    so the per-case execution is directly testable in-process.
    """

    def __init__(self, config: "EngineConfig", seed_bundle: Optional[Dict],
                 use_classification: bool = True) -> None:
        from repro.engine import core
        self.config = config
        self.database = McDatabase(use_classification=use_classification)
        self.cut_cache = CutFunctionCache(self.database)
        self.sim_cache = SimulationCache()
        if seed_bundle is not None:
            # the parent already validated the bundle (or built it itself)
            install_delta(seed_bundle, self.database, self.cut_cache)
        self.cursor = DeltaCursor(self.database, self.cut_cache)
        # cases travel as registry names: the builders are lambdas, which do
        # not survive pickling under the spawn start method
        self.cases = {case.name: case
                      for case in core.available_cases(config.suites,
                                                       config.corpus_dirs)}

    def pull(self, deltas: Sequence[Dict]) -> None:
        """Install deltas streamed from other workers (never re-emitted)."""
        for delta in deltas:
            install_delta(delta, self.database, self.cut_cache)
        if deltas:
            self.cursor.advance()

    def run(self, name: str) -> "CircuitReport":
        """Run one named case over the worker's shared caches."""
        from repro.engine.core import run_circuit
        return run_circuit(self.cases[name], self.config,
                           cut_cache=self.cut_cache, sim_cache=self.sim_cache)

    def push(self) -> Optional[Dict]:
        """Delta of everything newly learnt since the last push."""
        return self.cursor.collect()

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Cumulative per-worker counters, in the shard-stats layout."""
        return {
            "database": self.database.stats(),
            "cut_cache": self.cut_cache.stats(),
            "sim_cache": {"hits": self.sim_cache.hits,
                          "misses": self.sim_cache.misses},
        }


def _worker_main(worker_id: int, config: "EngineConfig",
                 use_classification: bool, seed_bundle: Optional[Dict],
                 inbox, outbox) -> None:
    """Message loop of one pool worker process.

    Protocol (worker side): announce ``("ready", id)`` once the seed bundle
    is installed; then for each ``("case", index, name, deltas)`` install
    the pulled deltas, run the case and answer ``("result", id, index,
    report, delta, stats)``; a ``("stop",)`` answers ``("stopped", id,
    stats)`` and exits.  Any infrastructure failure (per-case *pipeline*
    errors are captured inside the report) surfaces as ``("error", id,
    traceback)`` so the parent can abort instead of deadlocking.
    """
    try:
        # fresh (or forked) process: activate the batch's resolved backend
        # before any simulation or classification happens
        kernels.set_backend(config.backend)
        state = _WorkerState(config, seed_bundle,
                             use_classification=use_classification)
        outbox.put(("ready", worker_id))
        while True:
            message = inbox.get()
            if message[0] == "stop":
                outbox.put(("stopped", worker_id, state.stats()))
                return
            _, index, name, deltas = message
            state.pull(deltas)
            report = state.run(name)
            outbox.put(("result", worker_id, index, report, state.push(),
                        state.stats()))
    except Exception:  # noqa: BLE001 - report, don't deadlock the parent
        outbox.put(("error", worker_id, traceback.format_exc()))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def run_pool_batch(batch: "BatchReport", cases: Sequence[BenchmarkCase],
                   config: "EngineConfig", database: McDatabase,
                   cut_cache: CutFunctionCache,
                   workers: Optional[int] = None) -> None:
    """Run the cases over a persistent worker pool and merge the results.

    The seed bundle is shipped once per worker at process start (not once
    per case, and never duplicated into per-shard payloads); afterwards only
    incremental deltas travel.  The parent keeps a log of every delta any
    worker pushed, with a per-worker read position, so each dispatched case
    carries exactly the deltas that worker has not seen yet.
    """
    from repro.engine.core import _aggregate_worker_stats
    ordered = schedule_cases(cases)
    if workers is None:
        workers = min(len(ordered), resolve_jobs(config.jobs))
    # ship the *resolved* backend so every worker runs the same kernels the
    # parent recorded, whatever "auto" would resolve to over there; the
    # shared database's classification mode is propagated so ablation runs
    # stay identical to sequential ones (custom classifier / synthesizer
    # instances are not shipped — workers use the defaults)
    worker_config = replace(config, jobs=1, warm_start=None, persist=None,
                            backend=kernels.backend_name())
    seed_bundle = database.to_bundle(plan_keys=cut_cache.plan_keys())

    ctx = multiprocessing.get_context(start_method())
    outbox = ctx.Queue()
    inboxes = [ctx.Queue() for _ in range(workers)]
    processes = []
    for worker_id in range(workers):
        process = ctx.Process(
            target=_worker_main,
            args=(worker_id, worker_config, database.use_classification,
                  seed_bundle, inboxes[worker_id], outbox),
            daemon=True)
        process.start()
        processes.append(process)

    pending = deque(ordered)
    delta_log: List[Dict] = []
    sent_deltas = [0] * workers
    stats_by_worker: List[Optional[Dict]] = [None] * workers
    stopped = [False] * workers
    indexed_reports: List[Tuple[int, "CircuitReport"]] = []
    active = workers

    def dispatch(worker_id: int) -> None:
        fresh = delta_log[sent_deltas[worker_id]:]
        sent_deltas[worker_id] = len(delta_log)
        if pending:
            index, case = pending.popleft()
            inboxes[worker_id].put(("case", index, case.name, fresh))
        else:
            inboxes[worker_id].put(("stop",))

    try:
        while active:
            try:
                message = outbox.get(timeout=1.0)
            except queue_module.Empty:
                for worker_id, process in enumerate(processes):
                    if not stopped[worker_id] and not process.is_alive():
                        raise RuntimeError(
                            f"pool worker {worker_id} died with exit code "
                            f"{process.exitcode} before finishing its case")
                continue
            kind = message[0]
            if kind == "ready":
                dispatch(message[1])
            elif kind == "result":
                _, worker_id, index, report, delta, stats = message
                indexed_reports.append((index, report))
                if delta is not None:
                    install_delta(delta, database, cut_cache)
                    delta_log.append(delta)
                    if sent_deltas[worker_id] == len(delta_log) - 1:
                        # the tail is this worker's own delta: skip echoing
                        # it back (out-of-order arrivals still get it — the
                        # install is idempotent either way)
                        sent_deltas[worker_id] = len(delta_log)
                stats_by_worker[worker_id] = stats
                dispatch(worker_id)
            elif kind == "stopped":
                _, worker_id, stats = message
                stats_by_worker[worker_id] = stats
                stopped[worker_id] = True
                active -= 1
            elif kind == "error":
                _, worker_id, trace = message
                raise RuntimeError(f"pool worker {worker_id} failed:\n{trace}")
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    batch.workers = workers
    batch.worker_stats = [stats for stats in stats_by_worker
                          if stats is not None]
    batch.reports.extend(report for _, report in
                         sorted(indexed_reports, key=lambda pair: pair[0]))
    _aggregate_worker_stats(batch, database, cut_cache)

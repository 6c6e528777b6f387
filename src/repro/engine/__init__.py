"""Batch orchestration engine for the MC cut-rewriting flow.

:mod:`repro.engine` is the scaling layer on top of the single-circuit
pipelines of :mod:`repro.rewriting.pipeline`: it resolves benchmark suites
(EPFL Table 1, MPC/FHE Table 2), runs
:func:`repro.rewriting.pipeline.run_pipeline` over every selected circuit
with **one shared MC database and one shared cut-function cache**,
collects per-stage timings (build, one round, convergence, verification),
and renders the batch as a report.

The engine scales past a single process along two axes: warm-start bundles
(``EngineConfig.warm_start`` / ``EngineConfig.persist``, CLI ``--db``)
persist every recipe, classification and plan across invocations (never a
finished circuit: every circuit runs its pipeline, warm or cold), and
``EngineConfig.jobs`` (CLI ``--jobs``, ``auto`` = one worker per CPU) runs
the selected circuits over the persistent worker pool of
:mod:`repro.engine.parallel` — longest-first scheduling from a shared work
queue, with newly learnt cache entries streamed between workers as
content-addressed deltas while the batch runs.

The CLI entry point lives in :mod:`repro.engine.cli` and is reachable both
as ``python -m repro.engine`` and as the ``repro-engine`` console script.
"""

from repro.engine.core import (
    BatchReport,
    CircuitReport,
    EngineConfig,
    available_cases,
    load_warm_start,
    persist_warm_start,
    run_batch,
    run_circuit,
)
from repro.engine.parallel import (
    DeltaCursor,
    install_delta,
    resolve_jobs,
    schedule_cases,
    size_estimate,
)

__all__ = [
    "BatchReport",
    "CircuitReport",
    "DeltaCursor",
    "EngineConfig",
    "available_cases",
    "install_delta",
    "load_warm_start",
    "persist_warm_start",
    "resolve_jobs",
    "run_batch",
    "run_circuit",
    "schedule_cases",
    "size_estimate",
]

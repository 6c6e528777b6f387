"""Command-line interface of the batch engine.

Examples::

    # two small EPFL control circuits, two rounds, full report
    python -m repro.engine --suite epfl --circuits decoder,int2float --rounds 2

    # everything in the crypto registry, reduced scale, no convergence cap
    python -m repro.engine --suite crypto --rounds 0

    # run the control half of Table 1 over a pool of four workers
    # (longest-first scheduling, streamed cache deltas); 'auto' = one per CPU
    python -m repro.engine --suite epfl --groups control --jobs 4
    python -m repro.engine --suite epfl --jobs auto

    # warm-start: the second run reuses every recipe/classification/plan
    python -m repro.engine --circuits decoder,int2float --db /tmp/db.json
    python -m repro.engine --circuits decoder,int2float --db /tmp/db.json

    # list what can be run
    python -m repro.engine --list
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.kernels import BACKEND_CHOICES
from repro.engine.core import (EngineConfig, available_cases, resolved_flow,
                               run_batch)
from repro.rewriting.cost import cost_model, registered_cost_models


def non_negative_int(text: str) -> int:
    """argparse type: integer >= 0 (rejects ``--rounds -3`` loudly)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type: integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def jobs_spec(text: str) -> int:
    """argparse type of ``--jobs``: a positive integer, or ``auto`` (= 0).

    ``auto`` maps to the :class:`EngineConfig` sentinel 0, which
    :func:`repro.engine.parallel.resolve_jobs` turns into one worker per
    CPU at run time.  0 itself is rejected — ``auto`` is the one spelling
    of the automatic width.
    """
    if text.strip().lower() == "auto":
        return 0
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro-engine``."""
    parser = argparse.ArgumentParser(
        prog="repro-engine",
        description="Batch MC cut-rewriting over the EPFL and MPC/FHE registries.")
    parser.add_argument("--suite", default="epfl",
                        choices=["epfl", "crypto", "corpus", "all"],
                        help="benchmark registry to load (default: epfl)")
    parser.add_argument("--corpus", action="append", default=None,
                        metavar="DIR",
                        help="directory of Bristol/BLIF/JSON netlists to "
                             "register as extra cases (repeatable)")
    parser.add_argument("--circuits", default=None,
                        help="comma-separated circuit names (default: whole suite)")
    parser.add_argument("--groups", default=None,
                        help="comma-separated registry groups (arithmetic, "
                             "control, mpc, arithmetic-sweep, control-sweep, "
                             "crypto-full, external)")
    parser.add_argument("--cut-size", type=positive_int, default=6,
                        help="maximum cut leaves (default: 6)")
    parser.add_argument("--cut-limit", type=positive_int, default=12,
                        help="cuts kept per node (default: 12)")
    parser.add_argument("--cost", default="mc",
                        choices=sorted(registered_cost_models()),
                        metavar="MODEL",
                        help="cost model: mc = AND count (the paper's), "
                             "size = total gates, mc-depth = AND count then "
                             "multiplicative depth via the balance+rewrite "
                             "depth flow, fhe = noise-budget levels "
                             "(weighted depth + ANDs); models registered via "
                             "repro.rewriting.register_cost_model are "
                             "accepted too (default: mc)")
    parser.add_argument("--flow", metavar="SCRIPT", default=None,
                        help="custom pass pipeline instead of the objective's "
                             "canonical flow, e.g. 'balance,mc*,mc-depth*' or "
                             "'repeat:8(balance,guard(mc*),mc-depth*)'; atoms "
                             "run one round, '*' repeats to a fixpoint, '*N' "
                             "caps at N rounds; --size-baseline prepends a "
                             "baseline step unless the script has one")
    parser.add_argument("--rounds", type=non_negative_int, default=2,
                        help="cap on rewriting rounds, 0 = run to convergence "
                             "(default: 2); under mc-depth the cap applies "
                             "per stage and iteration of the depth flow")
    parser.add_argument("--jobs", type=jobs_spec, default=1, metavar="N|auto",
                        help="run the selected circuits over a persistent "
                             "pool of N worker processes fed longest-first "
                             "from a shared work queue, with learnt cache "
                             "entries streamed between workers; 'auto' = one "
                             "worker per CPU (default: 1)")
    parser.add_argument("--db", metavar="PATH", default=None,
                        help="warm-start bundle: load it when present, save "
                             "recipes/classifications/plans back on exit")
    parser.add_argument("--size-baseline", action="store_true",
                        help="run the generic size optimiser before MC rewriting")
    parser.add_argument("--full-scale", action="store_true",
                        help="build paper-scale netlists (slow in pure Python)")
    parser.add_argument("--verify-limit", type=non_negative_int, default=20000,
                        help="verify equivalence up to this many gates, 0 disables "
                             "(default: 20000)")
    parser.add_argument("--backend", default="auto", choices=BACKEND_CHOICES,
                        help="kernel backend of the batched cut-cone "
                             "simulation, which candidate selection no "
                             "longer uses (cut tables come from the cut "
                             "merge): auto picks numpy when importable, "
                             "else the pure-Python reference (REPRO_BACKEND "
                             "overrides); both give bit-identical results "
                             "(default: auto)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the per-circuit numbers as JSON")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list the circuits of the selected suite and exit")
    return parser


def config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Translate parsed arguments into an :class:`EngineConfig`."""
    return EngineConfig(
        suites=(args.suite,),
        corpus_dirs=tuple(args.corpus) if args.corpus else (),
        circuits=args.circuits.split(",") if args.circuits else None,
        groups=args.groups.split(",") if args.groups else None,
        cut_size=args.cut_size,
        cut_limit=args.cut_limit,
        objective=args.cost,
        flow=args.flow,
        max_rounds=None if args.rounds == 0 else args.rounds,
        size_baseline=args.size_baseline,
        full_scale=args.full_scale,
        verify_limit=args.verify_limit,
        jobs=args.jobs,
        warm_start=args.db,
        persist=args.db,
        backend=args.backend,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (also exposed as the ``repro-engine`` console script)."""
    args = build_parser().parse_args(argv)

    if args.list_only:
        corpus_dirs = tuple(args.corpus) if args.corpus else ()
        for case in available_cases((args.suite,), corpus_dirs):
            slow_note = " [slow]" if case.slow else ""
            print(f"{case.name:<20} {case.group:<16} "
                  f"{case.scale_note}{slow_note}")
        return 0

    try:
        batch = run_batch(config_from_args(args))
    except ValueError as error:
        print(f"repro-engine: error: {error}", file=sys.stderr)
        return 2
    print(batch.render())
    if args.db:
        loaded = "loaded and updated" if batch.warm_start_loaded else "created"
        print(f"warm-start bundle {loaded}: {args.db}")

    if args.json:
        model = cost_model(batch.config.objective)
        payload = {
            "config": {
                "suites": list(batch.config.suites),
                "circuits": batch.config.circuits,
                "groups": batch.config.groups,
                "cost": model.name,
                # always the *resolved* script: a custom --flow (behind the
                # baseline step --size-baseline injects), else the
                # canonical pipeline serialised (never null)
                "flow": resolved_flow(batch.config),
                "rounds": args.rounds,
                # requested jobs after auto-resolution, and the worker
                # processes actually spawned (clamped to the case count)
                "jobs": batch.jobs,
                "workers": batch.workers,
                # the backend that actually ran (never "auto")
                "backend": batch.backend,
            },
            "summary": {
                "total_seconds": batch.total_seconds,
                "warm_start_loaded": batch.warm_start_loaded,
                "database": batch.database_stats,
                "cut_cache": batch.cut_cache_stats,
                # scheduling observability: the slowest per-case wall times
                "slowest_cases": [
                    {"name": name, "seconds": seconds}
                    for name, seconds in batch.slowest_cases()],
            },
            "circuits": [
                {
                    "name": report.name,
                    "group": report.group,
                    "error": report.error,
                    "num_pis": report.num_pis,
                    "num_pos": report.num_pos,
                    "ands_before": report.ands_before,
                    "xors_before": report.xors_before,
                    "ands_after": report.ands_after,
                    "xors_after": report.xors_after,
                    "and_improvement": report.and_improvement,
                    "mult_depth_before": report.depth_before,
                    "mult_depth_after": report.depth_after,
                    "depth_improvement": report.depth_improvement,
                    "cost_model": report.cost_model,
                    "cost_before": report.cost_before,
                    "cost_after": report.cost_after,
                    "within_budget": report.within_budget,
                    "rounds": len(report.rounds),
                    "verified": report.verified,
                    "wall_seconds": report.total_seconds,
                    "stage_seconds": report.stage_timings(),
                }
                for report in batch.reports
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    return 1 if batch.failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

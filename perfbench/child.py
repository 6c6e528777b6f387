"""One fresh benchmark process: set-up, then (optionally) one timed batch.

``run.py`` starts this script once per sample; it is not meant to be run by
hand.  Every mode first does the set-up a fresh run pays — interpreter
start, importing the engine, resolving the kernel backend and generating
the workload's seeded inputs — and records ``setup_s``, the time from the
parent's spawn call to the end of that set-up.  Then:

``setup``
    stops (a set-up sample only);
``bundle``
    runs the workload cold with the worker pool and persists a warm-start
    bundle to ``--bundle`` (set-up of ``crypto-warm``);
``batch``
    runs the timed ``run_batch`` call — wall clock, user + system CPU of
    the process and its pool workers, and peak RSS of any of them — and,
    with ``--trace 1``, records spans and checks every optimised network
    against its input netlist with the cache-free oracle.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402  (benchmark-local modules next to this file)
import workloads  # noqa: E402


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _circuits(batch) -> list:
    """Per-circuit outcome rows of a batch report, in registry order."""
    rows = []
    for report in batch.reports:
        rows.append({
            "case": workloads.case_of(report.name),
            "ands": report.ands_after,
            "depth": report.depth_after,
            "rounds": len(report.rounds),
            "verified": report.verified,
            "error": report.error,
            "wall_s": report.total_seconds,
            "nodes_examined": sum(s.nodes_considered for s in report.rounds),
            "candidates": sum(s.candidates_evaluated for s in report.rounds),
            "applied": sum(s.rewrites_applied for s in report.rounds),
        })
    return rows


def _config(workload, inputs: Path, backend: str, **overrides):
    from repro.engine.core import EngineConfig

    settings = dict(suites=(), corpus_dirs=(str(inputs),),
                    objective=workload.objective, max_rounds=None,
                    jobs=workload.jobs, backend=backend)
    settings.update(overrides)
    return EngineConfig(**settings)


def _timed_batch(config) -> dict:
    """Run one batch, measuring wall, CPU (workers included) and peak RSS."""
    from repro.engine.core import run_batch

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    batch = run_batch(config)
    wall = time.perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (_cpu_seconds(self_after) - _cpu_seconds(self_before)
           + _cpu_seconds(children_after) - _cpu_seconds(children_before))
    peak_kib = max(self_after.ru_maxrss, children_after.ru_maxrss)
    return {
        "batch": batch,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def _summary(batch) -> dict:
    return {
        "workers": batch.workers,
        "warm_start_loaded": batch.warm_start_loaded,
        "cut_cache": batch.cut_cache_stats,
        "circuits": _circuits(batch),
    }


# ----------------------------------------------------------------------
# traced batch
# ----------------------------------------------------------------------
def _install_tracer(tracer, trace_dir: Path) -> None:
    """Wrap the engine's layers plus the counters and capture points."""
    import os

    from repro.engine import core, parallel
    from repro.xag import serialize

    state = {"role": "batch"}

    def counting(name, counter):
        def factory(original):
            wrapped = tracer.wrap(original, name)

            def call(*args, **kwargs):
                result = wrapped(*args, **kwargs)
                counter(args, result)
                return result
            call.__wrapped__ = original
            return call
        return factory

    def count_delta(args, _result):
        if state["role"] == "batch":
            tracer.count("engine.pool.deltas", 1)
            tracer.count("engine.pool.delta_bytes",
                         len(pickle.dumps(args[0], pickle.HIGHEST_PROTOCOL)))

    def count_bundle_file(args, _result):
        path = Path(args[0])
        if path.exists():
            tracer.count("mc.bundle.bytes", path.stat().st_size)

    def count_cones(args, _result):
        tracer.count("kernels.simulate_cones.cones", len(args[2]))

    tracer.install({
        "repro.engine.parallel:install_delta":
            counting("engine.pool.install", count_delta),
        "repro.engine.core:load_warm_start":
            counting("mc.bundle_load", count_bundle_file),
        "repro.engine.core:persist_warm_start":
            counting("mc.bundle_save", count_bundle_file),
        "repro.kernels.numpy_backend:NumpyBackend.simulate_cones":
            counting("kernels.simulate_cones", count_cones),
    })

    original_pipeline = core.run_pipeline

    def capture_pipeline(xag, *args, **kwargs):
        result = original_pipeline(xag, *args, **kwargs)
        tracer.finals.append((xag.name, result.final))
        # rounds undone by restoring the pre-round snapshot (no-gain rounds
        # and depth-guard rejections); nested passes roll up into these
        tracer.count("xag.rollback.calls",
                     sum(p.discarded_rounds for p in result.passes))
        return result

    tracer.patch(core, "run_pipeline", capture_pipeline)

    original_worker = parallel._worker_main
    root_id = tracer.name_id(spans.ROOT)

    def traced_worker(worker_id, config, use_classification, seed_bundle,
                      inbox, outbox):
        # a forked worker inherits the parent's columns: start its own
        state["role"] = "worker"
        tracer.reset()
        tracer.count("engine.pool.seed_bundle_bytes",
                     len(pickle.dumps(seed_bundle, pickle.HIGHEST_PROTOCOL)))
        index = tracer.open(root_id)
        try:
            original_worker(worker_id, config, use_classification,
                            seed_bundle, inbox, outbox)
        finally:
            tracer.close(index)
            tracer.write("worker")
            for name, final in tracer.finals:
                serialize.save(final, trace_dir /
                               f"final-{os.getpid()}-{name}.json")

    tracer.patch(parallel, "_worker_main", traced_worker)


def _traced_batch(config, run_dir: Path, inputs: Path) -> dict:
    from repro.testing.oracle import assert_equivalent
    from repro.xag import serialize

    trace_dir = run_dir / "trace"
    tracer = spans.Tracer(run_id=run_dir.name, out_dir=trace_dir)
    _install_tracer(tracer, trace_dir)
    root = tracer.open(tracer.name_id(spans.ROOT))
    try:
        measured = _timed_batch(config)
    finally:
        tracer.close(root)
        tracer.remove()
    tracer.write("batch")

    # optimised networks of this process, then those the workers wrote
    finals = list(tracer.finals)
    for path in sorted(trace_dir.glob("final-*.json")):
        final = serialize.load(path)
        finals.append((path.stem.split("-", 2)[2], final))
    oracle_failures = []
    for name, final in finals:
        reference = serialize.load(inputs / f"{name}.json")
        try:
            assert_equivalent(reference, final, context=name)
        except AssertionError as error:
            oracle_failures.append(str(error))

    processes = []
    for path in sorted(trace_dir.glob("spans-*.bin")):
        header, names, name_ids, parents, starts, ends = spans.read_spans(path)
        totals = spans.layer_totals(names, name_ids, parents, starts, ends)
        processes.append({"role": header["role"], "pid": header["pid"],
                          "counters": header["counters"],
                          "spans": header["spans"], "totals": totals,
                          "coverage": spans.coverage(totals)})
    measured["trace"] = {
        "processes": processes,
        "oracle_checked": len(finals),
        "oracle_failures": oracle_failures,
    }
    return measured


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "bundle", "batch"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True,
                        help="private directory of this process")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() of the parent's spawn call")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--bundle", type=Path, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = {"mode": args.mode}
    try:
        from repro import kernels

        workload = workloads.WORKLOADS[args.workload]
        backend = kernels.resolve_backend("auto")
        inputs = args.dir / "inputs"
        out["inputs_digest"] = workloads.generate_inputs(
            workload, args.seed, inputs)
        out["setup_s"] = time.time() - args.t0
        out["backend"] = backend

        if args.mode == "bundle":
            config = _config(workload, inputs, backend, jobs=2,
                             persist=str(args.bundle))
            measured = _timed_batch(config)
        elif args.mode == "batch":
            overrides = {}
            if workload.warm:
                overrides = dict(warm_start=str(args.bundle),
                                 persist=str(args.dir / "bundle-out.json"))
            config = _config(workload, inputs, backend, **overrides)
            if args.trace:
                measured = _traced_batch(config, args.dir, inputs)
                out["trace"] = measured["trace"]
            else:
                measured = _timed_batch(config)
        if args.mode != "setup":
            out.update({key: measured[key] for key in
                        ("wall_s", "cpu_s", "peak_rss_mb")})
            out.update(_summary(measured["batch"]))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        out["error"] = traceback.format_exc()
    args.out.write_text(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
